// Normalized IoT events in the 11-field log schema of Section V-A-1:
//   (Event.date, Event.data, User.info, App.info, Group.info,
//    Location.info, Device.label, Capability.name, Attribute.name,
//    Attribute.value, Capability.command)
//
// Section II-A's devices publish attribute changes to subscribed apps; here
// each change is one Event, carried as a log line (the daemon's ingest
// request, a log file) rather than over an in-process bus.
#pragma once

#include <string>
#include <string_view>

#include "util/timeofday.h"

namespace jarvis::events {

struct Event {
  util::SimTime date;          // Event.date
  std::string data;            // Event.data: free-form payload
  std::string user_info;       // User.info: acting user, "" if none
  std::string app_info;        // App.info: acting app ("manual" for app 0)
  std::string group_info;      // Group.info
  std::string location_info;   // Location.info
  std::string device_label;    // Device.label
  std::string capability;      // Capability.name, e.g. "switch", "lock"
  std::string attribute;       // Attribute.name, e.g. "power", "lockState"
  std::string attribute_value; // Attribute.value: the new (raw) value
  std::string command;         // Capability.command that caused the change

  // One JSON object per line, the on-disk log format: the eleven fields
  // plus event_minute (date in minutes), keys in sorted order.
  std::string ToLogLine() const;
  // Decodes one line without building a JSON DOM. Throws util::JsonError
  // on malformed JSON, a non-object, or an event_minute that is missing
  // or not a whole number within +-2^53. A field that is absent or not a
  // string reads as ""; of duplicate keys the first wins.
  static Event FromLogLine(std::string_view line);

  bool operator==(const Event&) const = default;
};

}  // namespace jarvis::events
