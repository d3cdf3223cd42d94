#include "events/logger_app.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace jarvis::events {

std::vector<Event> LoggerApp::ParseLog(const std::string& text,
                                       std::size_t* dropped) {
  std::vector<Event> events;
  std::size_t drop_count = 0;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
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

std::vector<Event> LoggerApp::ReadLogFile(const std::string& path,
                                          std::size_t* dropped) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("LoggerApp: cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseLog(buffer.str(), dropped);
}

}  // namespace jarvis::events
