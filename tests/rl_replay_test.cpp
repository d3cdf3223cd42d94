#include "rl/replay.h"

#include <gtest/gtest.h>

#include "util/check.h"

#include <limits>
#include <set>

namespace jarvis::rl {
namespace {

Experience MakeExperience(double reward) {
  Experience experience;
  experience.features = {reward};
  experience.reward = reward;
  experience.next_features = {reward + 1.0};
  experience.next_mask = {true};
  return experience;
}

TEST(ReplayBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(ReplayBuffer(0), util::CheckError);
}

TEST(ReplayBuffer, FillsThenWrapsAsRing) {
  ReplayBuffer buffer(3);
  for (int i = 0; i < 3; ++i) buffer.Add(MakeExperience(i));
  EXPECT_EQ(buffer.size(), 3u);
  // Adding two more evicts the oldest two.
  buffer.Add(MakeExperience(3));
  buffer.Add(MakeExperience(4));
  EXPECT_EQ(buffer.size(), 3u);

  util::Rng rng(1);
  std::set<double> rewards;
  for (int i = 0; i < 200; ++i) {
    for (std::size_t index : buffer.Sample(3, rng)) {
      rewards.insert(buffer.At(index).reward);
    }
  }
  EXPECT_EQ(rewards.count(0.0), 0u) << "evicted entry sampled";
  EXPECT_EQ(rewards.count(1.0), 0u);
  EXPECT_TRUE(rewards.count(2.0));
  EXPECT_TRUE(rewards.count(3.0));
  EXPECT_TRUE(rewards.count(4.0));
}

TEST(ReplayBuffer, CanSampleGate) {
  ReplayBuffer buffer(10);
  EXPECT_FALSE(buffer.CanSample(1));
  util::Rng rng(2);
  EXPECT_THROW(buffer.Sample(1, rng), util::CheckError);
  buffer.Add(MakeExperience(0));
  EXPECT_TRUE(buffer.CanSample(1));
  EXPECT_FALSE(buffer.CanSample(2));
}

TEST(ReplayBuffer, SampleIsUniformish) {
  ReplayBuffer buffer(4);
  for (int i = 0; i < 4; ++i) buffer.Add(MakeExperience(i));
  util::Rng rng(3);
  std::vector<int> counts(4, 0);
  const int draws = 40000;
  for (int i = 0; i < draws / 4; ++i) {
    for (std::size_t index : buffer.Sample(4, rng)) {
      ++counts[static_cast<int>(buffer.At(index).reward)];
    }
  }
  for (int count : counts) EXPECT_NEAR(count, draws / 4, draws / 4 * 0.1);
}

TEST(ReplayBuffer, ClearEmpties) {
  ReplayBuffer buffer(4);
  buffer.Add(MakeExperience(1));
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_FALSE(buffer.CanSample(1));
  // Refill works after clear.
  buffer.Add(MakeExperience(2));
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(ReplayBuffer, StoresFullExperienceFields) {
  ReplayBuffer buffer(2);
  Experience experience;
  experience.features = {1.0, 2.0};
  experience.taken_slots = {3, 5};
  experience.reward = 0.7;
  experience.next_features = {4.0};
  experience.next_mask = {true, false};
  experience.done = true;
  buffer.Add(experience);
  util::Rng rng(4);
  const Experience& stored = buffer.At(buffer.Sample(1, rng)[0]);
  EXPECT_EQ(stored.features, experience.features);
  EXPECT_EQ(stored.taken_slots, experience.taken_slots);
  EXPECT_DOUBLE_EQ(stored.reward, 0.7);
  EXPECT_EQ(stored.next_mask, experience.next_mask);
  EXPECT_TRUE(stored.done);
}

TEST(ReplayBuffer, PurgePoisonedDropsNonFiniteExperiences) {
  ReplayBuffer buffer(10);
  buffer.Add(MakeExperience(1.0));
  buffer.Add(MakeExperience(std::numeric_limits<double>::infinity()));
  buffer.Add(MakeExperience(2.0));
  Experience nan_features = MakeExperience(3.0);
  nan_features.features = {std::numeric_limits<double>::quiet_NaN()};
  buffer.Add(nan_features);
  buffer.Add(MakeExperience(2e9));  // absurd magnitude counts as poisoned

  EXPECT_EQ(buffer.PurgePoisoned(), 3u);
  EXPECT_EQ(buffer.size(), 2u);
  util::Rng rng(5);
  for (std::size_t index : buffer.Sample(2, rng)) {
    const double reward = buffer.At(index).reward;
    EXPECT_TRUE(reward == 1.0 || reward == 2.0);
  }
  // The ring stays consistent: refilling past capacity still works.
  for (int i = 0; i < 12; ++i) buffer.Add(MakeExperience(i));
  EXPECT_EQ(buffer.size(), 10u);
  EXPECT_EQ(buffer.PurgePoisoned(), 0u);
}

// The bug the index API fixes: the old Sample() returned raw
// `const Experience*` into the ring storage, which PurgePoisoned()'s
// erase/compact and Add()'s slot overwrite invalidated — a use-after-shrink
// that ASan flags and release builds silently misread. Indices make the
// staleness *detectable*: At() bounds-checks every access, so an index that
// outlived a shrink throws instead of dereferencing freed or reused memory.
// (Run under the asan preset this is also a direct use-after-free probe of
// the underlying storage.)
TEST(ReplayBuffer, SampledIndicesOutliveMutationsDetectably) {
  ReplayBuffer buffer(8);
  buffer.Add(MakeExperience(1.0));
  buffer.Add(MakeExperience(std::numeric_limits<double>::quiet_NaN()));
  util::Rng rng(6);
  const std::vector<std::size_t> sampled = buffer.Sample(2, rng);
  // Purge compacts the buffer down to one element: any sampled index >= 1
  // is now stale and must throw rather than alias freed storage.
  ASSERT_EQ(buffer.PurgePoisoned(), 1u);
  ASSERT_EQ(buffer.size(), 1u);
  for (std::size_t index : sampled) {
    if (index >= buffer.size()) {
      EXPECT_THROW(buffer.At(index), util::CheckError);
    } else {
      // An in-range index stays accessible, though it may now name a
      // different (compacted) experience — the documented contract.
      EXPECT_NO_THROW(buffer.At(index));
    }
  }
  EXPECT_THROW(buffer.At(buffer.size()), util::CheckError);

  // SampleInto reuses the caller's vector and draws identically to
  // Sample(): same rng seed, same indices.
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  std::vector<std::size_t> via_into;
  via_into.assign(5, 999);  // stale content must be cleared
  buffer.Add(MakeExperience(2.0));
  buffer.SampleInto(2, rng_a, via_into);
  EXPECT_EQ(via_into, buffer.Sample(2, rng_b));
}

}  // namespace
}  // namespace jarvis::rl
