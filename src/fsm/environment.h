// The environment FSM (Definition 1): the device set and the composite
// transition function Delta.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fsm/device.h"
#include "fsm/state.h"

namespace jarvis::fsm {

// Immutable after construction; run-time state is passed in and returned.
class EnvironmentFsm {
 public:
  explicit EnvironmentFsm(std::vector<Device> devices);

  std::size_t device_count() const { return devices_.size(); }
  const std::vector<Device>& devices() const { return devices_; }
  const Device& device(DeviceId id) const;
  const StateCodec& codec() const { return codec_; }

  // The device with this label; nullopt when there is none.
  std::optional<DeviceId> FindDevice(const std::string& label) const;
  // Finds a device by label; throws if absent.
  const Device& DeviceByLabel(const std::string& label) const;
  DeviceId DeviceIdByLabel(const std::string& label) const;

  // Delta: applies a validated joint action (one mini-action per device at
  // most; constraint 5 holds by construction since delta_i is applied once).
  StateVector Apply(const StateVector& state, const ActionVector& action) const;

  // Validates widths and ranges; throws std::invalid_argument on failure.
  void ValidateState(const StateVector& state) const;
  void ValidateAction(const ActionVector& action) const;

 private:
  std::vector<Device> devices_;
  StateCodec codec_;
  std::unordered_map<std::string, DeviceId> by_label_;
};

}  // namespace jarvis::fsm
