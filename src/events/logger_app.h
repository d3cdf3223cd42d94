// The logger app of Section V-A-1 as a log reader: every event is stored as
// one JSON log line (Event::ToLogLine), and a log is read back here.
#pragma once

#include <string>
#include <vector>

#include "events/event.h"

namespace jarvis::events {

class LoggerApp {
 public:
  // Parses a log (one Event::ToLogLine per line) back into events. Lines
  // that fail to parse are skipped and counted in *dropped if non-null.
  static std::vector<Event> ParseLog(const std::string& text,
                                     std::size_t* dropped = nullptr);
};

}  // namespace jarvis::events
