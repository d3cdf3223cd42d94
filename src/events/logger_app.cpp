#include "events/logger_app.h"

#include <algorithm>
#include <string_view>

#include "util/json.h"

namespace jarvis::events {

std::vector<Event> LoggerApp::ParseLog(const std::string& text,
                                       std::size_t* dropped) {
  std::vector<Event> events;
  events.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) +
      1);
  std::size_t drop_count = 0;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    const std::string_view line(text.data() + begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    try {
      events.push_back(Event::FromLogLine(line));
    } catch (const util::JsonError&) {
      ++drop_count;
    }
  }
  if (dropped != nullptr) *dropped = drop_count;
  return events;
}

}  // namespace jarvis::events
