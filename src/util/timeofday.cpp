#include "util/timeofday.h"

#include <cstdio>

namespace jarvis::util {

std::string SimTime::ToString() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "d%d %02d:%02d", day(), hour_of_day(),
                minute_of_hour());
  return buf;
}

std::string SimTime::ToTimestamp() const {
  // Simulation dates are synthetic; render them into January 2020 onward,
  // which is enough for sortable, human-readable log timestamps.
  const int total_days = day();
  const int month = total_days / 28 + 1;   // 28-day synthetic months
  const int day_of_month = total_days % 28 + 1;
  char buf[40];
  std::snprintf(buf, sizeof buf, "2020-%02d-%02dT%02d:%02d:00", month,
                day_of_month, hour_of_day(), minute_of_hour());
  return buf;
}

}  // namespace jarvis::util
