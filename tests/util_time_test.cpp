#include "util/timeofday.h"

#include <gtest/gtest.h>

namespace jarvis::util {
namespace {

TEST(SimTime, ComponentsDecompose) {
  const SimTime t = SimTime::FromHms(3, 14, 25);
  EXPECT_EQ(t.day(), 3);
  EXPECT_EQ(t.hour_of_day(), 14);
  EXPECT_EQ(t.minute_of_hour(), 25);
  EXPECT_EQ(t.minute_of_day(), 14 * 60 + 25);
  EXPECT_EQ(t.minutes(), 3 * kMinutesPerDay + 14 * 60 + 25);
}

TEST(SimTime, EpochIsMondayMidnight) {
  const SimTime epoch(0);
  EXPECT_EQ(epoch.day_of_week(), 0);
  EXPECT_FALSE(epoch.is_weekend());
  EXPECT_EQ(epoch.minute_of_day(), 0);
}

TEST(SimTime, WeekendDetection) {
  EXPECT_FALSE(SimTime::FromDayAndMinute(4, 0).is_weekend());  // Friday
  EXPECT_TRUE(SimTime::FromDayAndMinute(5, 0).is_weekend());   // Saturday
  EXPECT_TRUE(SimTime::FromDayAndMinute(6, 0).is_weekend());   // Sunday
  EXPECT_FALSE(SimTime::FromDayAndMinute(7, 0).is_weekend());  // Monday again
}

TEST(SimTime, ArithmeticAndComparison) {
  const SimTime t = SimTime::FromHms(1, 23, 50);
  const SimTime later = t + 20;
  EXPECT_EQ(later.day(), 2);
  EXPECT_EQ(later.minute_of_day(), 10);
  EXPECT_EQ(later - t, 20);
  EXPECT_LT(t, later);
  EXPECT_EQ(t + 0, t);
  EXPECT_EQ((later - 20), t);
}

TEST(SimTime, NegativeSafeMinuteOfDay) {
  const SimTime t(-10);  // 10 minutes before epoch
  EXPECT_EQ(t.minute_of_day(), kMinutesPerDay - 10);
}

TEST(SimTime, Rendering) {
  EXPECT_EQ(SimTime::FromHms(2, 7, 5).ToString(), "d2 07:05");
  const std::string ts = SimTime::FromHms(0, 13, 45).ToTimestamp();
  EXPECT_EQ(ts, "2020-01-01T13:45:00");
}

}  // namespace
}  // namespace jarvis::util
