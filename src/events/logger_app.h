// The logger app of Section V-A-1: subscribes to all device capabilities on
// the bus and stores every event as a JSON log line.
#pragma once

#include <string>
#include <vector>

#include "events/bus.h"
#include "events/event.h"

namespace jarvis::events {

class LoggerApp {
 public:
  // Subscribes to everything on construction.
  explicit LoggerApp(EventBus& bus);
  ~LoggerApp();

  LoggerApp(const LoggerApp&) = delete;
  LoggerApp& operator=(const LoggerApp&) = delete;

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void Clear() { events_.clear(); }

  // Serializes all stored events, one JSON object per line.
  std::string DumpLog() const;

  // Parses a log dump back into events (inverse of DumpLog). Lines that
  // fail to parse are skipped and counted in *dropped if non-null.
  static std::vector<Event> ParseLog(const std::string& text,
                                     std::size_t* dropped = nullptr);
  static std::vector<Event> ReadLogFile(const std::string& path,
                                        std::size_t* dropped = nullptr);

 private:
  EventBus& bus_;
  SubscriptionId subscription_;
  std::vector<Event> events_;
};

}  // namespace jarvis::events
