#include "fsm/environment.h"

#include "util/check.h"

namespace jarvis::fsm {

EnvironmentFsm::EnvironmentFsm(std::vector<Device> devices)
    : devices_(std::move(devices)), codec_(devices_) {
  JARVIS_CHECK(!devices_.empty(), "EnvironmentFsm: no devices");
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    JARVIS_CHECK(devices_[i].id() == static_cast<DeviceId>(i),
                 "EnvironmentFsm: device ids must be dense and ordered");
    const std::string& label = devices_[i].label();
    JARVIS_CHECK(by_label_.emplace(label, devices_[i].id()).second,
                 "EnvironmentFsm: duplicate device label ", label);
  }
}

const Device& EnvironmentFsm::device(DeviceId id) const {
  JARVIS_CHECK(id >= 0 && static_cast<std::size_t>(id) < devices_.size(),
               "EnvironmentFsm::device: bad id ", id);
  return devices_[static_cast<std::size_t>(id)];
}

std::optional<DeviceId> EnvironmentFsm::FindDevice(
    const std::string& label) const {
  const auto it = by_label_.find(label);
  if (it == by_label_.end()) return std::nullopt;
  return it->second;
}

const Device& EnvironmentFsm::DeviceByLabel(const std::string& label) const {
  const auto id = FindDevice(label);
  JARVIS_CHECK(id.has_value(), "unknown device label: ", label);
  return device(*id);
}

DeviceId EnvironmentFsm::DeviceIdByLabel(const std::string& label) const {
  return DeviceByLabel(label).id();
}

void EnvironmentFsm::ValidateState(const StateVector& state) const {
  JARVIS_CHECK_EQ(state.size(), devices_.size(), "state width mismatch");
  for (std::size_t i = 0; i < state.size(); ++i) {
    JARVIS_CHECK(state[i] >= 0 && state[i] < devices_[i].state_count(),
                 "state index ", state[i], " out of range for device ",
                 devices_[i].label());
  }
}

void EnvironmentFsm::ValidateAction(const ActionVector& action) const {
  JARVIS_CHECK_EQ(action.size(), devices_.size(), "action width mismatch");
  for (std::size_t i = 0; i < action.size(); ++i) {
    if (action[i] == kNoAction) continue;
    JARVIS_CHECK(action[i] >= 0 && action[i] < devices_[i].action_count(),
                 "action index ", action[i], " out of range for device ",
                 devices_[i].label());
  }
}

StateVector EnvironmentFsm::Apply(const StateVector& state,
                                  const ActionVector& action) const {
  ValidateState(state);
  ValidateAction(action);
  StateVector next(state.size());
  for (std::size_t i = 0; i < state.size(); ++i) {
    next[i] = devices_[i].Transition(state[i], action[i]);
  }
  return next;
}

}  // namespace jarvis::fsm
