#include "fsm/state.h"

#include <gtest/gtest.h>

#include "util/check.h"

#include <set>

#include "fsm/device_library.h"
#include "util/rng.h"

namespace jarvis::fsm {
namespace {

class CodecSuite : public ::testing::TestWithParam<std::vector<Device>> {
 protected:
  StateCodec MakeCodec() const { return StateCodec(GetParam()); }
};

TEST_P(CodecSuite, EncodingIsInjectiveOnSamples) {
  const auto& devices = GetParam();
  const StateCodec codec(devices);
  util::Rng rng(8);
  std::set<std::uint64_t> keys;
  std::set<StateVector> states;
  for (int trial = 0; trial < 300; ++trial) {
    StateVector state(devices.size());
    for (std::size_t i = 0; i < devices.size(); ++i) {
      state[i] = static_cast<StateIndex>(
          rng.NextIndex(static_cast<std::size_t>(devices[i].state_count())));
    }
    states.insert(state);
    keys.insert(codec.Encode(state));
  }
  EXPECT_EQ(states.size(), keys.size());
}

TEST_P(CodecSuite, MiniActionSlotsRoundTrip) {
  const auto& devices = GetParam();
  const StateCodec codec(devices);
  std::set<std::size_t> seen;
  for (const auto& device : devices) {
    for (ActionIndex a = 0; a < device.action_count(); ++a) {
      const MiniAction mini{device.id(), a};
      const std::size_t slot = codec.MiniActionSlot(mini);
      EXPECT_TRUE(seen.insert(slot).second) << "slot collision";
      EXPECT_EQ(codec.SlotToMiniAction(slot), mini);
    }
    const std::size_t noop = codec.NoOpSlot(device.id());
    EXPECT_TRUE(seen.insert(noop).second);
    const MiniAction decoded = codec.SlotToMiniAction(noop);
    EXPECT_EQ(decoded.device, device.id());
    EXPECT_EQ(decoded.action, kNoAction);
  }
  EXPECT_EQ(seen.size(), codec.mini_action_count());
}

TEST_P(CodecSuite, OneHotHasExactlyOneBitPerDevice) {
  const auto& devices = GetParam();
  const StateCodec codec(devices);
  StateVector state(devices.size(), 0);
  const auto features = codec.OneHot(state);
  EXPECT_EQ(features.size(), codec.one_hot_width());
  double total = 0.0;
  for (double f : features) {
    EXPECT_TRUE(f == 0.0 || f == 1.0);
    total += f;
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(devices.size()));
}

INSTANTIATE_TEST_SUITE_P(Homes, CodecSuite,
                         ::testing::Values(ExampleHomeDevices(),
                                           FullHomeDevices()));

TEST(StateCodec, StateSpaceSizeMatchesProduct) {
  const StateCodec codec(ExampleHomeDevices());
  // lock 4 * door 4 * light 2 * thermostat 3 * temp 5 = 480
  EXPECT_EQ(codec.state_space_size(), 480u);
}

TEST(StateCodec, EncodeValidatesInput) {
  const StateCodec codec(ExampleHomeDevices());
  EXPECT_THROW(codec.Encode({0, 0}), util::CheckError);
  EXPECT_THROW(codec.Encode({9, 0, 0, 0, 0}), util::CheckError);
  EXPECT_THROW(codec.OneHot({0, 0, 0, 0, -1}), util::CheckError);
}

TEST(StateCodec, ActionSlotsConversions) {
  const auto devices = ExampleHomeDevices();
  const StateCodec codec(devices);
  ActionVector action(devices.size(), kNoAction);
  action[2] = 1;  // light power_on
  action[3] = 2;  // thermostat power_off
  const auto slots = codec.ActionToSlots(action);
  EXPECT_EQ(slots.size(), devices.size());
  EXPECT_EQ(codec.SlotsToAction(slots), action);
}

TEST(StateCodec, SlotLayoutIsContiguousPerDevice) {
  const auto devices = FullHomeDevices();
  const StateCodec codec(devices);
  std::size_t expected = 0;
  for (const auto& device : devices) {
    for (ActionIndex a = 0; a < device.action_count(); ++a) {
      EXPECT_EQ(codec.MiniActionSlot({device.id(), a}), expected++);
    }
    EXPECT_EQ(codec.NoOpSlot(device.id()), expected++);
  }
  EXPECT_EQ(expected, codec.mini_action_count());
}

TEST(StateCodec, MiniActionSpaceGrowsLinearly) {
  // Section V-A-7: the mini-action head grows linearly in devices while
  // the joint action space grows exponentially.
  const StateCodec small(ExampleHomeDevices());
  const StateCodec big(FullHomeDevices());
  EXPECT_EQ(small.mini_action_count(), 19u);  // (4+2+2+4+2) + 5 no-ops
  EXPECT_EQ(big.mini_action_count(), 49u);
  EXPECT_GT(big.state_space_size(), 100000u);
}

TEST(TransitionKeyHash, DistinguishesDirection) {
  const TransitionKeyHash hash;
  const TransitionKey ab{1, 2};
  const TransitionKey ba{2, 1};
  EXPECT_NE(hash(ab), hash(ba));
  EXPECT_TRUE((TransitionKey{1, 2} == TransitionKey{1, 2}));
  EXPECT_FALSE((TransitionKey{1, 2} == ba));
}

TEST(StateCodec, ActionRendering) {
  const auto devices = ExampleHomeDevices();
  const StateCodec codec(devices);
  ActionVector action(devices.size(), kNoAction);
  action[0] = 1;
  const std::string action_text = codec.ActionToString(devices, action);
  EXPECT_NE(action_text.find("unlock"), std::string::npos);
  EXPECT_NE(action_text.find("O"), std::string::npos);
}

}  // namespace
}  // namespace jarvis::fsm
