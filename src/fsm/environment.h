// The environment FSM (Definition 1): the device set, the composite
// transition function Delta, and enforcement of the five state-transition
// constraints of Section III-B.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fsm/authorization.h"
#include "fsm/device.h"
#include "fsm/state.h"

namespace jarvis::fsm {

// One attempted device-action in an interval, attributed to a user acting
// through an app (apps subscribe to events; manual operation is app 0).
struct ActionRequest {
  UserId user = -1;
  AppId app = kManualApp;
  DeviceId device = -1;
  ActionIndex action = kNoAction;
};

// Why a request was dropped during conflict resolution.
enum class RejectReason {
  kAccepted,
  kUnauthorizedUserApp,     // constraint 2
  kUnauthorizedAppDevice,   // constraint 3
  kUnauthorizedUserDevice,  // container policy
  kDeviceBusy,              // constraints 1/4: device already acted on
  kUnknownDevice,
  kInvalidAction,
};

struct RequestOutcome {
  ActionRequest request;
  RejectReason reason = RejectReason::kAccepted;
};

// Immutable after construction; run-time state is passed in and returned.
class EnvironmentFsm {
 public:
  EnvironmentFsm(std::vector<Device> devices, AuthorizationModel auth);

  std::size_t device_count() const { return devices_.size(); }
  const std::vector<Device>& devices() const { return devices_; }
  const Device& device(DeviceId id) const;
  const AuthorizationModel& auth() const { return auth_; }
  const StateCodec& codec() const { return codec_; }

  // The device with this label; nullopt when there is none.
  std::optional<DeviceId> FindDevice(const std::string& label) const;
  // Finds a device by label; throws if absent.
  const Device& DeviceByLabel(const std::string& label) const;
  DeviceId DeviceIdByLabel(const std::string& label) const;

  // Delta: applies a validated joint action (one mini-action per device at
  // most; constraint 5 holds by construction since delta_i is applied once).
  StateVector Apply(const StateVector& state, const ActionVector& action) const;

  // Processes raw requests in arrival order, enforcing authorization and
  // first-come-first-served conflict resolution (constraint 4). Returns the
  // resulting joint action; per-request outcomes are appended to `outcomes`
  // if non-null.
  ActionVector ResolveRequests(const std::vector<ActionRequest>& requests,
                               std::vector<RequestOutcome>* outcomes) const;

  // Validates widths and ranges; throws std::invalid_argument on failure.
  void ValidateState(const StateVector& state) const;
  void ValidateAction(const ActionVector& action) const;

 private:
  std::vector<Device> devices_;
  AuthorizationModel auth_;
  StateCodec codec_;
  std::unordered_map<std::string, DeviceId> by_label_;
};

}  // namespace jarvis::fsm
