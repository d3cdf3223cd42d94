#include "fsm/environment.h"

#include <gtest/gtest.h>

#include "util/check.h"

#include "fsm/device_library.h"

namespace jarvis::fsm {
namespace {

TEST(EnvironmentFsm, ApplyUsesPerDeviceTransitions) {
  const EnvironmentFsm fsm = BuildHome(ExampleHomeDevices(), 1);
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
  const EnvironmentFsm fsm = BuildHome(ExampleHomeDevices(), 1);
  StateVector state = {1, 0, 0, 2, 2};  // lock unlocked
  ActionVector action(5, kNoAction);
  action[0] = *fsm.device(0).FindAction("lock");
  const StateVector next = fsm.Apply(state, action);
  EXPECT_EQ(next[0], *fsm.device(0).FindState("locked_outside"));
}

TEST(EnvironmentFsm, ValidationRejectsBadShapes) {
  const EnvironmentFsm fsm = BuildHome(ExampleHomeDevices(), 1);
  EXPECT_THROW(fsm.ValidateState({0, 0}), util::CheckError);
  EXPECT_THROW(fsm.ValidateState({9, 0, 0, 0, 0}), util::CheckError);
  EXPECT_THROW(fsm.ValidateAction({0}), util::CheckError);
  ActionVector bad(5, kNoAction);
  bad[1] = 7;
  EXPECT_THROW(fsm.ValidateAction(bad), util::CheckError);
  EXPECT_THROW(fsm.Apply({0, 0, 0, 0, 0}, bad), util::CheckError);
}

TEST(EnvironmentFsm, DeviceLookupByLabel) {
  const EnvironmentFsm fsm = BuildHome(ExampleHomeDevices(), 1);
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

class ResolveRequestsFixture : public ::testing::Test {
 protected:
  ResolveRequestsFixture()
      : fsm_(BuildHome(ExampleHomeDevices(), /*user_count=*/2)) {}
  EnvironmentFsm fsm_;
};

TEST_F(ResolveRequestsFixture, AuthorizedManualRequestAccepted) {
  std::vector<RequestOutcome> outcomes;
  const auto action = fsm_.ResolveRequests(
      {{/*user=*/0, kManualApp, /*device=*/2,
        *fsm_.device(2).FindAction("power_on")}},
      &outcomes);
  EXPECT_EQ(action[2], *fsm_.device(2).FindAction("power_on"));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].reason, RejectReason::kAccepted);
}

TEST_F(ResolveRequestsFixture, ConstraintFourFirstComeFirstServed) {
  // Two apps fight over the light in one interval; the first wins.
  std::vector<RequestOutcome> outcomes;
  const ActionIndex on = *fsm_.device(2).FindAction("power_on");
  const ActionIndex off = *fsm_.device(2).FindAction("power_off");
  const auto action = fsm_.ResolveRequests(
      {{0, kManualApp, 2, on}, {1, kManualApp, 2, off}}, &outcomes);
  EXPECT_EQ(action[2], on);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].reason, RejectReason::kAccepted);
  EXPECT_EQ(outcomes[1].reason, RejectReason::kDeviceBusy);
}

TEST_F(ResolveRequestsFixture, ConstraintTwoUserAppSubscription) {
  // App id 1 ("unlock-door-on-auth-user") exists; user 0 is subscribed in
  // BuildHome, so fabricate an unsubscribed user id.
  std::vector<RequestOutcome> outcomes;
  const auto action = fsm_.ResolveRequests(
      {{/*user=*/7, /*app=*/1, /*device=*/0,
        *fsm_.device(0).FindAction("unlock")}},
      &outcomes);
  EXPECT_EQ(action[0], kNoAction);
  EXPECT_EQ(outcomes[0].reason, RejectReason::kUnauthorizedUserApp);
}

TEST_F(ResolveRequestsFixture, ConstraintThreeAppDeviceSubscription) {
  // App 2 (maintain-optimal-temperature) may not act on the lock.
  std::vector<RequestOutcome> outcomes;
  const auto action = fsm_.ResolveRequests(
      {{0, /*app=*/2, /*device=*/0, *fsm_.device(0).FindAction("unlock")}},
      &outcomes);
  EXPECT_EQ(action[0], kNoAction);
  EXPECT_EQ(outcomes[0].reason, RejectReason::kUnauthorizedAppDevice);
}

TEST_F(ResolveRequestsFixture, UnknownDeviceAndInvalidAction) {
  std::vector<RequestOutcome> outcomes;
  fsm_.ResolveRequests({{0, kManualApp, 42, 0}, {0, kManualApp, 2, 9}},
                       &outcomes);
  EXPECT_EQ(outcomes[0].reason, RejectReason::kUnknownDevice);
  EXPECT_EQ(outcomes[1].reason, RejectReason::kInvalidAction);
}

TEST_F(ResolveRequestsFixture, NoActionRequestsAccepted) {
  std::vector<RequestOutcome> outcomes;
  const auto action =
      fsm_.ResolveRequests({{0, kManualApp, 2, kNoAction}}, &outcomes);
  EXPECT_EQ(action[2], kNoAction);
  EXPECT_EQ(outcomes[0].reason, RejectReason::kAccepted);
  // A no-action request does not make the device busy.
  const auto action2 = fsm_.ResolveRequests(
      {{0, kManualApp, 2, kNoAction},
       {0, kManualApp, 2, *fsm_.device(2).FindAction("power_on")}},
      nullptr);
  EXPECT_NE(action2[2], kNoAction);
}

TEST(EnvironmentFsmConstruction, RejectsEmptyAndMisnumbered) {
  EXPECT_THROW(EnvironmentFsm({}, AuthorizationModel{}),
               util::CheckError);
  std::vector<Device> devices;
  devices.push_back(MakeSmartLight(3));  // id 3 but index 0
  EXPECT_THROW(EnvironmentFsm(std::move(devices), AuthorizationModel{}),
               util::CheckError);
}

TEST(EnvironmentFsmConstruction, RejectsDuplicateLabels) {
  std::vector<Device> devices;
  devices.push_back(MakeSmartLight(0));
  devices.push_back(MakeSmartLight(1));  // a second "light"
  EXPECT_THROW(EnvironmentFsm(std::move(devices), AuthorizationModel{}),
               util::CheckError);
}

}  // namespace
}  // namespace jarvis::fsm
