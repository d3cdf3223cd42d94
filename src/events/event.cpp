#include "events/event.h"

#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>

#include "util/json.h"

namespace jarvis::events {

namespace {

// The log line's keys in sorted order, each with the string field it
// carries; event_date and event_minute both render `date`, and only
// event_minute is read back.
struct LogField {
  std::string_view key;
  std::string Event::*text;
};
constexpr LogField kLogFields[] = {
    {"app_info", &Event::app_info},
    {"attribute_name", &Event::attribute},
    {"attribute_value", &Event::attribute_value},
    {"capability_command", &Event::command},
    {"capability_name", &Event::capability},
    {"device_label", &Event::device_label},
    {"event_data", &Event::data},
    {"event_date", nullptr},
    {"event_minute", nullptr},
    {"group_info", &Event::group_info},
    {"location_info", &Event::location_info},
    {"user_info", &Event::user_info},
};
constexpr std::size_t kFieldCount = std::size(kLogFields);
constexpr std::string_view kDateKey = "event_date";
constexpr std::string_view kMinuteKey = "event_minute";

}  // namespace

std::string Event::ToLogLine() const {
  std::string line;
  for (const LogField& field : kLogFields) {
    line += line.empty() ? '{' : ',';
    line += '"';
    line += field.key;
    line += "\":";
    if (field.text != nullptr) {
      line += util::JsonEscape(this->*field.text);
    } else if (field.key == kDateKey) {
      line += util::JsonEscape(date.ToTimestamp());
    } else {
      line += std::to_string(date.minutes());
    }
  }
  line += '}';
  return line;
}

Event Event::FromLogLine(std::string_view line) {
  Event event;
  std::optional<double> minute;
  std::uint32_t seen = 0;  // bit i: kLogFields[i] read (the first key wins)
  std::string key;
  util::JsonReader reader(line);
  if (reader.BeginObject()) {
    do {
      reader.ReadKey(&key);
      std::size_t i = 0;
      while (i < kFieldCount && kLogFields[i].key != key) ++i;
      const bool first = i < kFieldCount && (seen >> i & 1U) == 0;
      if (first) seen |= 1U << i;
      if (first && kLogFields[i].key == kMinuteKey) {
        minute = reader.ReadNumber();
      } else if (first && kLogFields[i].text != nullptr &&
                 reader.Peek() == '"') {
        reader.ReadString(&(event.*kLogFields[i].text));
      } else {
        reader.SkipValue();
      }
    } while (reader.NextMember());
  }
  reader.ExpectEnd();
  // Past 2^53 a double no longer holds every whole minute.
  if (!minute || std::floor(*minute) != *minute ||
      std::fabs(*minute) > 0x1p53) {
    throw util::JsonError("event_minute: missing, or not whole within 2^53");
  }
  event.date = util::SimTime(static_cast<std::int64_t>(*minute));
  return event;
}

}  // namespace jarvis::events
