// Deterministic, seedable random number generation for simulation and
// learning components. All stochastic behavior in the library flows through
// util::Rng so experiments are reproducible from a single seed.
//
// Thread safety: Rng is NOT thread-safe — every Next* call mutates the
// generator state, and concurrent calls on one instance are a data race.
// Concurrent code (the fleet runtime) gives each execution stream its own
// Rng, seeded via DeriveSeed so the streams are decorrelated yet fully
// reproducible from one root seed.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace jarvis::util {

// Derives the seed for sub-stream `stream` of the generator family rooted
// at `root_seed`: the SplitMix64 stream is jumped ahead by `stream + 1`
// increments and finalized, so consecutive stream indices (tenant 0, 1, 2,
// ...) yield decorrelated 64-bit seeds even when root seeds are small
// consecutive integers. This is the one sanctioned way to fan a single
// experiment seed out to per-tenant / per-restart seeds — raw `seed + i`
// arithmetic hands neighboring streams nearly identical xoshiro
// initializations, which the SplitMix64 finalizer mixes away.
std::uint64_t DeriveSeed(std::uint64_t root_seed, std::uint64_t stream);

// xoshiro256** by Blackman & Vigna, seeded via SplitMix64. Chosen over
// std::mt19937 for speed and for a guaranteed-stable output sequence across
// standard-library implementations (reproducibility of experiments).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform bits.
  std::uint64_t NextU64();

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  // Uniform index in [0, n). Requires n > 0.
  std::size_t NextIndex(std::size_t n);

  // Uniform real in [lo, hi).
  double NextUniform(double lo, double hi);

  // Standard normal via Box-Muller.
  double NextGaussian();

  // Gaussian with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  // Bernoulli trial: true with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      std::size_t j = NextIndex(i + 1);
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  // Draws k distinct indices from [0, n) without replacement.
  std::vector<std::size_t> SampleIndices(std::size_t n, std::size_t k);

 private:
  std::uint64_t state_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace jarvis::util
