#include "util/rng.h"

#include <cmath>

namespace jarvis::util {

namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t DeriveSeed(std::uint64_t root_seed, std::uint64_t stream) {
  // Jump the SplitMix64 state ahead by `stream` increments of the golden
  // gamma; SplitMix64() then advances once more and finalizes, so stream k
  // returns finalize(root + (k + 1) * gamma) — the (k + 1)-th output of the
  // SplitMix64 sequence rooted at `root_seed`.
  std::uint64_t state = root_seed + stream * 0x9e3779b97f4a7c15ULL;
  return SplitMix64(state);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::NextInt: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(NextU64());  // full range
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit =
      std::numeric_limits<std::uint64_t>::max() -
      (std::numeric_limits<std::uint64_t>::max() % span);
  std::uint64_t draw;
  do {
    draw = NextU64();
  } while (draw >= limit && limit != 0);
  return lo + static_cast<std::int64_t>(draw % span);
}

std::size_t Rng::NextIndex(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::NextIndex: n == 0");
  return static_cast<std::size_t>(NextInt(0, static_cast<std::int64_t>(n) - 1));
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  spare_gaussian_ = mag * std::sin(angle);
  has_spare_gaussian_ = true;
  return mag * std::cos(angle);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

std::vector<std::size_t> Rng::SampleIndices(std::size_t n, std::size_t k) {
  if (k > n) throw std::invalid_argument("Rng::SampleIndices: k > n");
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: shuffle only the first k slots.
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + NextIndex(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace jarvis::util
