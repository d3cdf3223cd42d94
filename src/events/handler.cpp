#include "events/handler.h"

#include "util/strings.h"

namespace jarvis::events {

namespace {

// Vendor values and commands match case-insensitively, ignoring
// surrounding whitespace.
std::string Canonical(const std::string& raw) {
  constexpr char kSpace[] = " \t\n\v\f\r";
  const std::size_t begin = raw.find_first_not_of(kSpace);
  if (begin == std::string::npos) return "";
  const std::size_t end = raw.find_last_not_of(kSpace);
  return util::ToLower(raw.substr(begin, end - begin + 1));
}

}  // namespace

DeviceHandler::DeviceHandler(const fsm::Device& device)
    : device_label_(device.label()),
      capability_(fsm::DeviceClassName(device.device_class())) {
  for (fsm::StateIndex s = 0; s < device.state_count(); ++s) {
    state_names_.push_back(device.state_name(s));
    value_to_state_[util::ToLower(device.state_name(s))] = s;
  }
  for (fsm::ActionIndex a = 0; a < device.action_count(); ++a) {
    action_names_.push_back(device.action_name(a));
    command_to_action_[util::ToLower(device.action_name(a))] = a;
  }
}

void DeviceHandler::AddValueSynonym(const std::string& vendor_value,
                                    const std::string& state_name) {
  auto it = value_to_state_.find(util::ToLower(state_name));
  if (it == value_to_state_.end()) {
    throw std::invalid_argument("AddValueSynonym: unknown state " + state_name);
  }
  value_to_state_[util::ToLower(vendor_value)] = it->second;
}

void DeviceHandler::AddCommandSynonym(const std::string& vendor_command,
                                      const std::string& action_name) {
  auto it = command_to_action_.find(util::ToLower(action_name));
  if (it == command_to_action_.end()) {
    throw std::invalid_argument("AddCommandSynonym: unknown action " +
                                action_name);
  }
  command_to_action_[util::ToLower(vendor_command)] = it->second;
}

std::optional<fsm::StateIndex> DeviceHandler::NormalizeValue(
    const std::string& raw) const {
  auto it = value_to_state_.find(Canonical(raw));
  if (it == value_to_state_.end()) return std::nullopt;
  return it->second;
}

std::optional<fsm::ActionIndex> DeviceHandler::NormalizeCommand(
    const std::string& raw) const {
  auto it = command_to_action_.find(Canonical(raw));
  if (it == command_to_action_.end()) return std::nullopt;
  return it->second;
}

std::optional<Event> DeviceHandler::Normalize(
    const RawDeviceMessage& message, const std::string& user_info,
    const std::string& app_info, const std::string& location_info,
    const std::string& group_info) const {
  const auto state = NormalizeValue(message.raw_value);
  if (!state) return std::nullopt;
  fsm::ActionIndex action = fsm::kNoAction;
  if (!message.raw_command.empty()) {
    const auto normalized = NormalizeCommand(message.raw_command);
    if (!normalized) return std::nullopt;
    action = *normalized;
  }
  return MakeEvent(message.time, *state, action, user_info, app_info,
                   location_info, group_info);
}

Event DeviceHandler::MakeEvent(util::SimTime time, fsm::StateIndex new_state,
                               fsm::ActionIndex action,
                               const std::string& user_info,
                               const std::string& app_info,
                               const std::string& location_info,
                               const std::string& group_info) const {
  Event event;
  event.date = time;
  event.device_label = device_label_;
  event.capability = capability_;
  event.attribute = "state";
  event.attribute_value = state_names_.at(static_cast<std::size_t>(new_state));
  event.command = action == fsm::kNoAction
                      ? ""
                      : action_names_.at(static_cast<std::size_t>(action));
  event.user_info = user_info;
  event.app_info = app_info;
  event.location_info = location_info;
  event.group_info = group_info;
  event.data = "state-change";
  return event;
}

std::map<std::string, DeviceHandler> MakeStandardHandlers(
    const std::vector<fsm::Device>& devices) {
  std::map<std::string, DeviceHandler> handlers;
  for (const auto& device : devices) {
    DeviceHandler handler(device);
    // Common vendor vocabularies seen on SmartThings-class devices.
    if (device.label() == "lock") {
      handler.AddValueSynonym("LOCKED", "locked_outside");
      handler.AddValueSynonym("UNLOCKED", "unlocked");
      handler.AddCommandSynonym("LOCK_DOOR", "lock");
      handler.AddCommandSynonym("UNLOCK_DOOR", "unlock");
    } else if (device.label() == "light") {
      handler.AddValueSynonym("ON", "on");
      handler.AddValueSynonym("OFF", "off");
      handler.AddValueSynonym("pwr:1", "on");
      handler.AddValueSynonym("pwr:0", "off");
      handler.AddCommandSynonym("turnOn", "power_on");
      handler.AddCommandSynonym("turnOff", "power_off");
    } else if (device.label() == "thermostat") {
      handler.AddValueSynonym("HEATING", "heat");
      handler.AddValueSynonym("COOLING", "cool");
      handler.AddValueSynonym("IDLE", "off");
      handler.AddCommandSynonym("setHeatingSetpoint", "increase_temp");
      handler.AddCommandSynonym("setCoolingSetpoint", "decrease_temp");
    } else if (device.label() == "tv") {
      handler.AddValueSynonym("ON", "on");
      handler.AddValueSynonym("OFF", "off");
      handler.AddValueSynonym("STANDBY", "standby");
    }
    handlers.emplace(device.label(), std::move(handler));
  }
  return handlers;
}

}  // namespace jarvis::events
