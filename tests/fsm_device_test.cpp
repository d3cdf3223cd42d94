#include "fsm/device.h"

#include <gtest/gtest.h>

#include "util/check.h"

#include "fsm/device_library.h"

namespace jarvis::fsm {
namespace {

Device MakeToggle() {
  return Device::Builder(0, "toggle", DeviceClass::kLighting)
      .AddState("off", 0.0)
      .AddState("on", 10.0)
      .AddAction("power_on")
      .AddAction("power_off")
      .SetTransition("off", "power_on", "on")
      .SetTransition("on", "power_off", "off")
      .SetDefaultDisUtility(0.5)
      .Build();
}

TEST(Device, BuilderBasics) {
  const Device device = MakeToggle();
  EXPECT_EQ(device.id(), 0);
  EXPECT_EQ(device.label(), "toggle");
  EXPECT_EQ(device.state_count(), 2);
  EXPECT_EQ(device.action_count(), 2);
  EXPECT_EQ(device.state_name(1), "on");
  EXPECT_EQ(device.action_name(0), "power_on");
}

TEST(Device, TransitionSemantics) {
  const Device device = MakeToggle();
  const StateIndex off = *device.FindState("off");
  const StateIndex on = *device.FindState("on");
  const ActionIndex power_on = *device.FindAction("power_on");
  const ActionIndex power_off = *device.FindAction("power_off");
  EXPECT_EQ(device.Transition(off, power_on), on);
  EXPECT_EQ(device.Transition(on, power_off), off);
  // Undeclared pairs have no effect.
  EXPECT_EQ(device.Transition(on, power_on), on);
  EXPECT_EQ(device.Transition(off, power_off), off);
  // kNoAction is identity.
  EXPECT_EQ(device.Transition(on, kNoAction), on);
  EXPECT_TRUE(device.ActionHasEffect(off, power_on));
  EXPECT_FALSE(device.ActionHasEffect(on, power_on));
}

TEST(Device, TransitionBoundsChecked) {
  const Device device = MakeToggle();
  EXPECT_THROW(device.Transition(-1, 0), util::CheckError);
  EXPECT_THROW(device.Transition(2, 0), util::CheckError);
  EXPECT_THROW(device.Transition(0, 5), util::CheckError);
  EXPECT_THROW(device.state_name(9), util::CheckError);
  EXPECT_THROW(device.action_name(-1), util::CheckError);
}

TEST(Device, LookupsReturnNulloptForUnknown) {
  const Device device = MakeToggle();
  EXPECT_FALSE(device.FindState("nope").has_value());
  EXPECT_FALSE(device.FindAction("nope").has_value());
}

TEST(Device, PowerDrawPerState) {
  const Device device = MakeToggle();
  EXPECT_DOUBLE_EQ(device.PowerDraw(0), 0.0);
  EXPECT_DOUBLE_EQ(device.PowerDraw(1), 10.0);
  EXPECT_THROW(device.PowerDraw(2), util::CheckError);
}

TEST(Device, BuilderRejectsInvalidSpecs) {
  EXPECT_THROW(Device::Builder(0, "x", DeviceClass::kSensor)
                   .AddState("a")
                   .AddState("a"),
               util::CheckError);
  EXPECT_THROW(Device::Builder(0, "x", DeviceClass::kSensor)
                   .AddAction("a")
                   .AddAction("a"),
               util::CheckError);
  EXPECT_THROW(Device::Builder(0, "x", DeviceClass::kSensor)
                   .AddState("a")
                   .Build(),
               util::CheckError);  // no actions
  EXPECT_THROW(Device::Builder(0, "x", DeviceClass::kSensor)
                   .AddAction("a")
                   .Build(),
               util::CheckError);  // no states
  EXPECT_THROW(Device::Builder(0, "x", DeviceClass::kSensor)
                   .AddState("a")
                   .AddAction("go")
                   .SetTransition("a", "go", "missing")
                   .Build(),
               util::CheckError);
  EXPECT_THROW(Device::Builder(0, "x", DeviceClass::kSensor)
                   .SetDefaultDisUtility(1.5),
               util::CheckError);
}

// --- Device library: every catalog device satisfies shared invariants. ----

class DeviceLibrarySuite : public ::testing::TestWithParam<Device> {};

TEST_P(DeviceLibrarySuite, TransitionsAreTotalAndClosed) {
  const Device& device = GetParam();
  for (StateIndex s = 0; s < device.state_count(); ++s) {
    for (ActionIndex a = 0; a < device.action_count(); ++a) {
      const StateIndex next = device.Transition(s, a);
      EXPECT_GE(next, 0);
      EXPECT_LT(next, device.state_count());
    }
  }
}

TEST_P(DeviceLibrarySuite, DisUtilityNormalized) {
  const Device& device = GetParam();
  EXPECT_GE(device.default_dis_utility(), 0.0);
  EXPECT_LE(device.default_dis_utility(), 1.0);
}

TEST_P(DeviceLibrarySuite, PowerNonNegativeAndOffStatesDrawNothing) {
  const Device& device = GetParam();
  for (StateIndex s = 0; s < device.state_count(); ++s) {
    EXPECT_GE(device.PowerDraw(s), 0.0);
    if (device.state_name(s) == "off") {
      EXPECT_DOUBLE_EQ(device.PowerDraw(s), 0.0);
    }
  }
}

TEST_P(DeviceLibrarySuite, PowerCyclableDevicesRecover) {
  const Device& device = GetParam();
  const auto off = device.FindState("off");
  const auto power_on = device.FindAction("power_on");
  if (!off || !power_on) GTEST_SKIP() << "device has no off/power_on";
  // Power-on from off must leave the off state.
  EXPECT_NE(device.Transition(*off, *power_on), *off);
}

INSTANTIATE_TEST_SUITE_P(
    FullCatalog, DeviceLibrarySuite, ::testing::ValuesIn(LargeHomeDevices()),
    [](const ::testing::TestParamInfo<Device>& info) {
      return info.param.label();
    });

TEST(DeviceLibrary, TableOneShapes) {
  const auto devices = ExampleHomeDevices();
  ASSERT_EQ(devices.size(), 5u);
  EXPECT_EQ(devices[0].label(), "lock");
  EXPECT_EQ(devices[0].state_count(), 4);  // Table I: 4 lock states
  EXPECT_EQ(devices[0].action_count(), 4);
  EXPECT_EQ(devices[1].label(), "door_sensor");
  EXPECT_EQ(devices[2].label(), "light");
  EXPECT_EQ(devices[2].state_count(), 2);
  EXPECT_EQ(devices[3].label(), "thermostat");
  EXPECT_EQ(devices[3].action_count(), 4);
  EXPECT_EQ(devices[4].label(), "temp_sensor");
}

TEST(DeviceLibrary, FullHomeHasElevenDevicesWithDenseIds) {
  const auto devices = FullHomeDevices();
  ASSERT_EQ(devices.size(), 11u);  // k = 11 (Section VI-D)
  for (std::size_t i = 0; i < devices.size(); ++i) {
    EXPECT_EQ(devices[i].id(), static_cast<DeviceId>(i));
  }
}

TEST(DeviceLibrary, SecurityDevicesHaveHighDisUtility) {
  // Section V-A-4: locks and sensors are high dis-utility; HVAC and white
  // goods low.
  const auto devices = FullHomeDevices();
  const auto& lock = devices[0];
  const auto& thermostat = devices[3];
  const auto& washer = devices[8];
  EXPECT_GT(lock.default_dis_utility(), 0.7);
  EXPECT_LT(thermostat.default_dis_utility(), 0.4);
  EXPECT_LT(washer.default_dis_utility(), 0.4);
}

TEST(DeviceLibrary, LockSupportsLeaveAndArriveCycle) {
  const Device lock = MakeSmartLock(0);
  const StateIndex locked_outside = *lock.FindState("locked_outside");
  const StateIndex unlocked = *lock.FindState("unlocked");
  const ActionIndex do_lock = *lock.FindAction("lock");
  const ActionIndex do_unlock = *lock.FindAction("unlock");
  // Arrive: locked_outside -> unlocked; leave: unlocked -> locked_outside.
  EXPECT_EQ(lock.Transition(locked_outside, do_unlock), unlocked);
  EXPECT_EQ(lock.Transition(unlocked, do_lock), locked_outside);
  // locked_inside can both unlock and re-lock to outside.
  const StateIndex locked_inside = *lock.FindState("locked_inside");
  EXPECT_EQ(lock.Transition(locked_inside, do_unlock), unlocked);
  EXPECT_EQ(lock.Transition(locked_inside, do_lock), locked_outside);
}

}  // namespace
}  // namespace jarvis::fsm
