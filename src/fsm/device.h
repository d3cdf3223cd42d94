// Device model of Section III-A: each device D_i has a finite set of
// device-states {p_i0..}, a finite set of device-actions {a_i0..}, a
// transition function delta_i(state, action) -> state, and a dis-utility
// function omega_i(state, action) charged per time instance of delay.
//
// Devices also carry physical annotations the smart-home evaluation needs:
// per-state power draw (for the energy functionality F_0) and a device
// class used when assigning dis-utility defaults (Section V-A-4: lights,
// bells, and locks are high dis-utility; HVAC and white goods are low).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace jarvis::fsm {

using DeviceId = int;
using StateIndex = int;
using ActionIndex = int;

// Sentinel for "no action taken on this device this interval" — the 'O'
// entries in the paper's Tables II/III.
inline constexpr ActionIndex kNoAction = -1;

// Broad device classes; drive dis-utility defaults and evaluation grouping.
enum class DeviceClass {
  kSecurity,    // locks, alarms: high dis-utility, safety-critical
  kSensor,      // motion/door/temperature sensors: should stay powered
  kLighting,    // lights: immediate response expected, low power
  kHvac,        // thermostat/heater/AC: deferrable, high power
  kAppliance,   // washer, dishwasher, oven: deferrable, high power
  kEntertainment,  // TV, speakers
};

std::string DeviceClassName(DeviceClass cls);

// Immutable description of one device type; actual run-time state lives in
// the environment's composite state vector.
class Device {
 public:
  struct Builder;

  DeviceId id() const { return id_; }
  const std::string& label() const { return label_; }
  DeviceClass device_class() const { return device_class_; }

  int state_count() const { return static_cast<int>(state_names_.size()); }
  int action_count() const { return static_cast<int>(action_names_.size()); }

  const std::string& state_name(StateIndex s) const;
  const std::string& action_name(ActionIndex a) const;
  // Reverse lookups; nullopt when the name is unknown.
  std::optional<StateIndex> FindState(const std::string& name) const;
  std::optional<ActionIndex> FindAction(const std::string& name) const;

  // delta_i: next state for (state, action). kNoAction returns the state
  // unchanged. Out-of-range inputs fail a JARVIS_CHECK (util::CheckError).
  StateIndex Transition(StateIndex state, ActionIndex action) const;

  // omega_i: the device's normalized dis-utility per time instance of
  // delaying one of its actions, in [0, 1].
  double default_dis_utility() const { return default_dis_utility_; }

  // Electrical power drawn while resting in `state`, in watts.
  double PowerDraw(StateIndex state) const;

  // True if the action changes the state when applied in `state`.
  bool ActionHasEffect(StateIndex state, ActionIndex action) const;

 private:
  friend struct Builder;
  Device() = default;

  DeviceId id_ = -1;
  std::string label_;
  DeviceClass device_class_ = DeviceClass::kAppliance;
  std::vector<std::string> state_names_;
  std::vector<std::string> action_names_;
  // Row-major [state][action] next-state table.
  std::vector<StateIndex> transition_;
  double default_dis_utility_ = 0.0;
  std::vector<double> power_draw_watts_;
};

// Fluent builder; validates completeness at Build() time.
struct Device::Builder {
  Builder(DeviceId id, std::string label, DeviceClass cls);

  Builder& AddState(const std::string& name, double power_watts = 0.0);
  Builder& AddAction(const std::string& name);
  // Declares delta(state, action) = next. Unspecified pairs default to
  // "no effect" (stay in the same state).
  Builder& SetTransition(const std::string& state, const std::string& action,
                         const std::string& next_state);
  // Device-wide dis-utility weight in [0, 1].
  Builder& SetDefaultDisUtility(double omega);

  Device Build();

 private:
  StateIndex RequireState(const std::string& name) const;
  ActionIndex RequireAction(const std::string& name) const;

  Device device_;
  struct PendingTransition {
    std::string state, action, next;
  };
  std::vector<PendingTransition> pending_transitions_;
};

}  // namespace jarvis::fsm
