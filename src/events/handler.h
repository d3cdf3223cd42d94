// Device handler (Section II-A): renders a device's state change in FSM
// vocabulary as a normalized, edge-readable event. The simulators emit
// their traces through it; the ingest path reads FSM names only, so no
// vendor vocabulary is normalized here (DESIGN.md §5).
#pragma once

#include <string>

#include "events/event.h"
#include "fsm/device.h"

namespace jarvis::events {

// The event `device` publishes when it enters `new_state` at `time`, caused
// by `action` (fsm::kNoAction for a sensor report, which leaves the command
// field empty).
Event MakeEvent(const fsm::Device& device, util::SimTime time,
                fsm::StateIndex new_state, fsm::ActionIndex action,
                const std::string& user_info, const std::string& app_info,
                const std::string& location_info,
                const std::string& group_info);

}  // namespace jarvis::events
