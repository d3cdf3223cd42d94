#include "fsm/device.h"

#include "util/check.h"

namespace jarvis::fsm {

std::string DeviceClassName(DeviceClass cls) {
  switch (cls) {
    case DeviceClass::kSecurity:
      return "security";
    case DeviceClass::kSensor:
      return "sensor";
    case DeviceClass::kLighting:
      return "lighting";
    case DeviceClass::kHvac:
      return "hvac";
    case DeviceClass::kAppliance:
      return "appliance";
    case DeviceClass::kEntertainment:
      return "entertainment";
  }
  JARVIS_CHECK(false, "unknown device class: ", static_cast<int>(cls));
}

const std::string& Device::state_name(StateIndex s) const {
  JARVIS_CHECK(s >= 0 && s < state_count(), "Device::state_name: ", label_,
               " state ", s);
  return state_names_[static_cast<std::size_t>(s)];
}

const std::string& Device::action_name(ActionIndex a) const {
  JARVIS_CHECK(a >= 0 && a < action_count(), "Device::action_name: ", label_,
               " action ", a);
  return action_names_[static_cast<std::size_t>(a)];
}

std::optional<StateIndex> Device::FindState(const std::string& name) const {
  for (std::size_t i = 0; i < state_names_.size(); ++i) {
    if (state_names_[i] == name) return static_cast<StateIndex>(i);
  }
  return std::nullopt;
}

std::optional<ActionIndex> Device::FindAction(const std::string& name) const {
  for (std::size_t i = 0; i < action_names_.size(); ++i) {
    if (action_names_[i] == name) return static_cast<ActionIndex>(i);
  }
  return std::nullopt;
}

StateIndex Device::Transition(StateIndex state, ActionIndex action) const {
  JARVIS_CHECK(state >= 0 && state < state_count(),
               "Device::Transition: bad state ", state, " on ", label_);
  if (action == kNoAction) return state;
  JARVIS_CHECK(action >= 0 && action < action_count(),
               "Device::Transition: bad action ", action, " on ", label_);
  return transition_[static_cast<std::size_t>(state) *
                         static_cast<std::size_t>(action_count()) +
                     static_cast<std::size_t>(action)];
}

double Device::PowerDraw(StateIndex state) const {
  JARVIS_CHECK(state >= 0 && state < state_count(),
               "Device::PowerDraw: bad state ", state, " on ", label_);
  return power_draw_watts_[static_cast<std::size_t>(state)];
}

bool Device::ActionHasEffect(StateIndex state, ActionIndex action) const {
  return Transition(state, action) != state;
}

Device::Builder::Builder(DeviceId id, std::string label, DeviceClass cls) {
  device_.id_ = id;
  device_.label_ = std::move(label);
  device_.device_class_ = cls;
}

Device::Builder& Device::Builder::AddState(const std::string& name,
                                           double power_watts) {
  JARVIS_CHECK(!device_.FindState(name).has_value(),
               "duplicate state name: ", name);
  device_.state_names_.push_back(name);
  device_.power_draw_watts_.push_back(power_watts);
  return *this;
}

Device::Builder& Device::Builder::AddAction(const std::string& name) {
  JARVIS_CHECK(!device_.FindAction(name).has_value(),
               "duplicate action name: ", name);
  device_.action_names_.push_back(name);
  return *this;
}

Device::Builder& Device::Builder::SetTransition(const std::string& state,
                                                const std::string& action,
                                                const std::string& next_state) {
  pending_transitions_.push_back({state, action, next_state});
  return *this;
}

Device::Builder& Device::Builder::SetDefaultDisUtility(double omega) {
  JARVIS_CHECK(omega >= 0.0 && omega <= 1.0,
               "dis-utility must be in [0,1], got ", omega);
  device_.default_dis_utility_ = omega;
  return *this;
}

StateIndex Device::Builder::RequireState(const std::string& name) const {
  auto found = device_.FindState(name);
  JARVIS_CHECK(found.has_value(), "unknown state '", name, "' on device ",
               device_.label_);
  return *found;
}

ActionIndex Device::Builder::RequireAction(const std::string& name) const {
  auto found = device_.FindAction(name);
  JARVIS_CHECK(found.has_value(), "unknown action '", name, "' on device ",
               device_.label_);
  return *found;
}

Device Device::Builder::Build() {
  JARVIS_CHECK(!device_.state_names_.empty(),
               "device needs at least one state");
  JARVIS_CHECK(!device_.action_names_.empty(),
               "device needs at least one action");
  const auto states = static_cast<std::size_t>(device_.state_count());
  const auto actions = static_cast<std::size_t>(device_.action_count());

  // Default: actions have no effect unless declared.
  device_.transition_.resize(states * actions);
  for (std::size_t s = 0; s < states; ++s) {
    for (std::size_t a = 0; a < actions; ++a) {
      device_.transition_[s * actions + a] = static_cast<StateIndex>(s);
    }
  }
  for (const auto& t : pending_transitions_) {
    const auto s = static_cast<std::size_t>(RequireState(t.state));
    const auto a = static_cast<std::size_t>(RequireAction(t.action));
    device_.transition_[s * actions + a] = RequireState(t.next);
  }
  return std::move(device_);
}

}  // namespace jarvis::fsm
