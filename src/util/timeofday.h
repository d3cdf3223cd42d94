// Simulation time. The paper's smart-home instantiation uses episodes with
// time period T = 1 day and interval I = 1 minute (Section V-A-2), so the
// natural clock unit across the library is the minute. SimTime counts
// minutes from the simulation epoch (midnight of day 0, a Monday).
#pragma once

#include <cstdint>
#include <string>

namespace jarvis::util {

inline constexpr int kMinutesPerHour = 60;
inline constexpr int kMinutesPerDay = 24 * kMinutesPerHour;
inline constexpr int kMinutesPerWeek = 7 * kMinutesPerDay;

// Absolute simulation time in minutes since the epoch.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t minutes) : minutes_(minutes) {}

  static constexpr SimTime FromDayAndMinute(int day, int minute_of_day) {
    return SimTime(static_cast<std::int64_t>(day) * kMinutesPerDay +
                   minute_of_day);
  }
  static constexpr SimTime FromHms(int day, int hour, int minute) {
    return FromDayAndMinute(day, hour * kMinutesPerHour + minute);
  }

  constexpr std::int64_t minutes() const { return minutes_; }
  constexpr int day() const {
    return static_cast<int>(minutes_ / kMinutesPerDay);
  }
  constexpr int minute_of_day() const {
    return static_cast<int>(((minutes_ % kMinutesPerDay) + kMinutesPerDay) %
                            kMinutesPerDay);
  }
  constexpr int hour_of_day() const { return minute_of_day() / kMinutesPerHour; }
  constexpr int minute_of_hour() const {
    return minute_of_day() % kMinutesPerHour;
  }
  // Day of week: 0 = Monday ... 6 = Sunday (epoch is a Monday).
  constexpr int day_of_week() const { return ((day() % 7) + 7) % 7; }
  constexpr bool is_weekend() const { return day_of_week() >= 5; }

  constexpr SimTime operator+(std::int64_t delta_minutes) const {
    return SimTime(minutes_ + delta_minutes);
  }
  constexpr SimTime operator-(std::int64_t delta_minutes) const {
    return SimTime(minutes_ - delta_minutes);
  }
  constexpr std::int64_t operator-(SimTime other) const {
    return minutes_ - other.minutes_;
  }
  SimTime& operator+=(std::int64_t delta_minutes) {
    minutes_ += delta_minutes;
    return *this;
  }
  constexpr auto operator<=>(const SimTime&) const = default;

  // "d3 14:05" style rendering for logs and bench output.
  std::string ToString() const;
  // ISO-like "2020-01-<day+1>T14:05:00" timestamp used in event logs.
  std::string ToTimestamp() const;

 private:
  std::int64_t minutes_ = 0;
};

}  // namespace jarvis::util
