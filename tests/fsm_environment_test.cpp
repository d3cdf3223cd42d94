#include "fsm/environment.h"

#include <gtest/gtest.h>

#include "util/check.h"

#include "fsm/device_library.h"

namespace jarvis::fsm {
namespace {

TEST(EnvironmentFsm, ApplyUsesPerDeviceTransitions) {
  const EnvironmentFsm fsm(ExampleHomeDevices());
  StateVector state = {0, 0, 0, 2, 2};  // locked, sensing, light off,
                                        // thermostat off, temp optimal
  ActionVector action(5, kNoAction);
  action[2] = *fsm.device(2).FindAction("power_on");
  const StateVector next = fsm.Apply(state, action);
  EXPECT_EQ(next[2], *fsm.device(2).FindState("on"));
  // Everything else untouched.
  EXPECT_EQ(next[0], state[0]);
  EXPECT_EQ(next[3], state[3]);
}

TEST(EnvironmentFsm, ConstraintFiveAtMostOneChangePerDevice) {
  // Apply executes each device's transition exactly once per interval, so
  // a device changes state at most once even if its action would chain.
  const EnvironmentFsm fsm(ExampleHomeDevices());
  StateVector state = {1, 0, 0, 2, 2};  // lock unlocked
  ActionVector action(5, kNoAction);
  action[0] = *fsm.device(0).FindAction("lock");
  const StateVector next = fsm.Apply(state, action);
  EXPECT_EQ(next[0], *fsm.device(0).FindState("locked_outside"));
}

TEST(EnvironmentFsm, ValidationRejectsBadShapes) {
  const EnvironmentFsm fsm(ExampleHomeDevices());
  EXPECT_THROW(fsm.ValidateState({0, 0}), util::CheckError);
  EXPECT_THROW(fsm.ValidateState({9, 0, 0, 0, 0}), util::CheckError);
  EXPECT_THROW(fsm.ValidateAction({0}), util::CheckError);
  ActionVector bad(5, kNoAction);
  bad[1] = 7;
  EXPECT_THROW(fsm.ValidateAction(bad), util::CheckError);
  EXPECT_THROW(fsm.Apply({0, 0, 0, 0, 0}, bad), util::CheckError);
}

TEST(EnvironmentFsm, DeviceLookupByLabel) {
  const EnvironmentFsm fsm(ExampleHomeDevices());
  EXPECT_EQ(fsm.DeviceIdByLabel("thermostat"), 3);
  EXPECT_EQ(fsm.DeviceByLabel("light").label(), "light");
  for (const Device& device : fsm.devices()) {
    EXPECT_EQ(fsm.FindDevice(device.label()), device.id());
  }
  EXPECT_EQ(fsm.FindDevice("toaster"), std::nullopt);
  EXPECT_EQ(fsm.FindDevice(""), std::nullopt);
  EXPECT_THROW(fsm.DeviceByLabel("toaster"), util::CheckError);
  EXPECT_THROW(fsm.device(99), util::CheckError);
}

TEST(EnvironmentFsmConstruction, RejectsEmptyAndMisnumbered) {
  EXPECT_THROW(EnvironmentFsm(std::vector<Device>{}), util::CheckError);
  std::vector<Device> devices;
  devices.push_back(MakeSmartLight(3));  // id 3 but index 0
  EXPECT_THROW(EnvironmentFsm(std::move(devices)), util::CheckError);
}

TEST(EnvironmentFsmConstruction, RejectsDuplicateLabels) {
  std::vector<Device> devices;
  devices.push_back(MakeSmartLight(0));
  devices.push_back(MakeSmartLight(1));  // a second "light"
  EXPECT_THROW(EnvironmentFsm(std::move(devices)), util::CheckError);
}

}  // namespace
}  // namespace jarvis::fsm
