#include "events/handler.h"

namespace jarvis::events {

Event MakeEvent(const fsm::Device& device, util::SimTime time,
                fsm::StateIndex new_state, fsm::ActionIndex action,
                const std::string& user_info, const std::string& app_info,
                const std::string& location_info,
                const std::string& group_info) {
  Event event;
  event.date = time;
  event.device_label = device.label();
  event.capability = fsm::DeviceClassName(device.device_class());
  event.attribute = "state";
  event.attribute_value = device.state_name(new_state);
  event.command = action == fsm::kNoAction ? "" : device.action_name(action);
  event.user_info = user_info;
  event.app_info = app_info;
  event.location_info = location_info;
  event.group_info = group_info;
  event.data = "state-change";
  return event;
}

}  // namespace jarvis::events
