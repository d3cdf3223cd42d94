#include "rl/replay.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace jarvis::rl {

namespace {

bool Poisoned(const Experience& exp) {
  constexpr double kAbsurdReward = 1e9;
  if (!std::isfinite(exp.reward) || std::abs(exp.reward) > kAbsurdReward) {
    return true;
  }
  const auto finite = [](double v) { return std::isfinite(v); };
  return !std::all_of(exp.features.begin(), exp.features.end(), finite) ||
         !std::all_of(exp.next_features.begin(), exp.next_features.end(),
                      finite);
}

}  // namespace

// The ring grows to `capacity` as experiences arrive instead of reserving
// it: an agent that trains one day holds ~150 experiences, not 20,000.
ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
  JARVIS_CHECK_GT(capacity, std::size_t{0}, "ReplayBuffer: capacity 0");
}

void ReplayBuffer::Add(Experience experience) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(std::move(experience));
  } else {
    buffer_[next_] = std::move(experience);
  }
  next_ = (next_ + 1) % capacity_;
}

std::vector<std::size_t> ReplayBuffer::Sample(std::size_t batch,
                                              util::Rng& rng) const {
  std::vector<std::size_t> sample;
  SampleInto(batch, rng, sample);
  return sample;
}

void ReplayBuffer::SampleInto(std::size_t batch, util::Rng& rng,
                              std::vector<std::size_t>& out) const {
  JARVIS_CHECK(CanSample(batch),
               "ReplayBuffer::Sample: not enough experiences (", buffer_.size(),
               " < ", batch, ")");
  out.clear();
  out.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    out.push_back(rng.NextIndex(buffer_.size()));
  }
}

const Experience& ReplayBuffer::At(std::size_t index) const {
  JARVIS_CHECK_LT(index, buffer_.size(),
                  "ReplayBuffer::At: stale or out-of-range index");
  return buffer_[index];
}

std::size_t ReplayBuffer::PurgePoisoned() {
  const std::size_t before = buffer_.size();
  buffer_.erase(std::remove_if(buffer_.begin(), buffer_.end(), Poisoned),
                buffer_.end());
  // Re-anchor the ring cursor: while below capacity Add() appends, and the
  // size-mod-capacity cursor keeps overwrite order correct once full again.
  next_ = buffer_.size() % capacity_;
  return before - buffer_.size();
}

void ReplayBuffer::Clear() {
  buffer_.clear();
  next_ = 0;
}

}  // namespace jarvis::rl
