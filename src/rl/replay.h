// Experience replay (Section V-A-6): the agent remembers transitions from
// prior episodes and replays random mini-batches to learn cumulative
// rewards, so the DQN retains experience across episodes.
#pragma once

#include <cstddef>
#include <vector>

#include "util/json.h"
#include "util/rng.h"

namespace jarvis::rl {

// One remembered decision instant. Targets are recomputed at replay time
// from the current network, so the experience stores the raw observation,
// the mini-action slots taken, the reward, and the next observation with
// its availability mask.
struct Experience {
  std::vector<double> features;
  std::vector<std::size_t> taken_slots;
  double reward = 0.0;
  std::vector<double> next_features;
  std::vector<bool> next_mask;
  bool done = false;
};

// Fixed-capacity ring buffer with uniform sampling.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity);

  void Add(Experience experience);

  std::size_t size() const { return buffer_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool CanSample(std::size_t batch) const { return buffer_.size() >= batch; }

  // Samples `batch` buffer indices uniformly with replacement (Algorithm
  // 2's Sample(Mem, BSize)). Indices — not pointers — are returned because
  // Add() overwrites slots once the ring is full and PurgePoisoned()
  // compacts the buffer: a pointer taken before either call can dangle or
  // silently alias a different experience. An index is valid (At() accepts
  // it) until the next Add, PurgePoisoned, or Clear, and its *meaning*
  // (which experience it names) changes under the same operations — consume
  // samples before mutating the buffer.
  std::vector<std::size_t> Sample(std::size_t batch, util::Rng& rng) const;

  // Allocation-free variant: fills `out` (cleared first) with `batch`
  // sampled indices. Draws from `rng` identically to Sample().
  void SampleInto(std::size_t batch, util::Rng& rng,
                  std::vector<std::size_t>& out) const;

  // Bounds-checked access to a sampled experience (JARVIS_CHECK: throws
  // util::CheckError on a stale index that outlived a shrink). The
  // reference follows the same lifetime contract as the index.
  const Experience& At(std::size_t index) const;

  // Divergence recovery: removes experiences with non-finite features or
  // rewards (or absurd reward magnitudes) so a restored network does not
  // immediately re-train on the samples that diverged it. Returns the
  // number removed; relative order of survivors is preserved.
  std::size_t PurgePoisoned();

  void Clear();

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::vector<Experience> buffer_;
};

}  // namespace jarvis::rl
