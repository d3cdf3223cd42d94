#include <gtest/gtest.h>

#include "sim/prices.h"
#include "sim/scenario.h"
#include "sim/thermal.h"
#include "sim/weather.h"

namespace jarvis::sim {
namespace {

TEST(Weather, PureFunctionOfTime) {
  const WeatherModel weather(WeatherConfig{}, 42);
  const util::SimTime t = util::SimTime::FromHms(100, 12, 0);
  EXPECT_DOUBLE_EQ(weather.OutdoorTempC(t), weather.OutdoorTempC(t));
  const WeatherModel same(WeatherConfig{}, 42);
  EXPECT_DOUBLE_EQ(weather.OutdoorTempC(t), same.OutdoorTempC(t));
  const WeatherModel other(WeatherConfig{}, 43);
  EXPECT_NE(weather.OutdoorTempC(t), other.OutdoorTempC(t));
}

TEST(Weather, SeasonalShape) {
  const WeatherModel weather(WeatherConfig{}, 1);
  // Average across the day to cancel the diurnal component.
  auto day_mean = [&](int day) {
    double total = 0.0;
    for (int m = 0; m < util::kMinutesPerDay; m += 60) {
      total += weather.OutdoorTempC(util::SimTime::FromDayAndMinute(day, m));
    }
    return total / 24.0;
  };
  // Winter (day 20) colder than summer (day ~200).
  EXPECT_LT(day_mean(20), day_mean(200) - 10.0);
}

TEST(Weather, DiurnalShape) {
  WeatherConfig config;
  config.noise_stddev_c = 0.0;  // isolate the deterministic components
  const WeatherModel weather(config, 1);
  const double at_5am = weather.OutdoorTempC(util::SimTime::FromHms(10, 5, 0));
  const double at_3pm = weather.OutdoorTempC(util::SimTime::FromHms(10, 15, 0));
  EXPECT_GT(at_3pm, at_5am + 5.0);
}

TEST(Weather, ForecastTracksActualWithinNoise) {
  const WeatherModel weather(WeatherConfig{}, 5);
  double worst = 0.0;
  for (int day = 0; day < 30; ++day) {
    const util::SimTime t = util::SimTime::FromDayAndMinute(day, 720);
    worst = std::max(worst, std::abs(weather.OutdoorTempC(t) -
                                     weather.ForecastTempC(t)));
  }
  EXPECT_LT(worst, 4.0 * WeatherConfig{}.noise_stddev_c);
}

TEST(Prices, PeakExceedsOffPeak) {
  const DamPriceModel prices(PriceConfig{}, 9);
  double peak_total = 0.0, off_total = 0.0;
  int peak_count = 0, off_count = 0;
  for (int day = 0; day < 20; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      const util::SimTime t = util::SimTime::FromHms(day, hour, 0);
      if (prices.IsPeak(t)) {
        peak_total += prices.PriceAt(t);
        ++peak_count;
      } else if (prices.IsOffPeak(t)) {
        off_total += prices.PriceAt(t);
        ++off_count;
      }
    }
  }
  ASSERT_GT(peak_count, 0);
  ASSERT_GT(off_count, 0);
  EXPECT_GT(peak_total / peak_count, 2.0 * (off_total / off_count));
}

TEST(Prices, OffPeakWrapsMidnight) {
  const DamPriceModel prices(PriceConfig{}, 9);
  EXPECT_TRUE(prices.IsOffPeak(util::SimTime::FromHms(0, 23, 0)));
  EXPECT_TRUE(prices.IsOffPeak(util::SimTime::FromHms(0, 2, 0)));
  EXPECT_FALSE(prices.IsOffPeak(util::SimTime::FromHms(0, 12, 0)));
  EXPECT_TRUE(prices.IsPeak(util::SimTime::FromHms(0, 16, 0)));
  EXPECT_FALSE(prices.IsPeak(util::SimTime::FromHms(0, 21, 0)));
}

TEST(Prices, PricesPositiveAndStableWithinHour) {
  const DamPriceModel prices(PriceConfig{}, 10);
  for (int hour = 0; hour < 24; ++hour) {
    const double a = prices.PriceAt(util::SimTime::FromHms(3, hour, 5));
    const double b = prices.PriceAt(util::SimTime::FromHms(3, hour, 55));
    EXPECT_GT(a, 0.0);
    EXPECT_DOUBLE_EQ(a, b) << "price should be constant within the hour";
  }
}

TEST(Thermal, RelaxesTowardOutdoorWhenOff) {
  ThermalModel thermal(ThermalConfig{});
  thermal.set_indoor_temp_c(21.0);
  for (int i = 0; i < 6 * 60; ++i) thermal.Step(HvacMode::kOff, 0.0);
  EXPECT_LT(thermal.indoor_temp_c(), 21.0);
  EXPECT_GT(thermal.indoor_temp_c(), 0.0);  // never overshoots outdoor
}

TEST(Thermal, HeatingRaisesAgainstColdOutdoor) {
  ThermalModel thermal(ThermalConfig{});
  thermal.set_indoor_temp_c(10.0);
  for (int i = 0; i < 240; ++i) thermal.Step(HvacMode::kHeat, -5.0);
  EXPECT_GT(thermal.indoor_temp_c(), ThermalConfig{}.optimal_low_c)
      << "heater must be able to reach the comfort band in winter";
}

TEST(Thermal, CoolingLowersAgainstHotOutdoor) {
  ThermalModel thermal(ThermalConfig{});
  thermal.set_indoor_temp_c(30.0);
  for (int i = 0; i < 240; ++i) thermal.Step(HvacMode::kCool, 33.0);
  EXPECT_LT(thermal.indoor_temp_c(), ThermalConfig{}.optimal_high_c);
}

TEST(Thermal, SensorStateBands) {
  ThermalModel thermal(ThermalConfig{});
  thermal.set_indoor_temp_c(25.0);
  EXPECT_EQ(thermal.SensorState(), 0);  // above_optimal
  thermal.set_indoor_temp_c(15.0);
  EXPECT_EQ(thermal.SensorState(), 1);  // below_optimal
  thermal.set_indoor_temp_c(21.5);
  EXPECT_EQ(thermal.SensorState(), 2);  // optimal
}

TEST(Thermal, ComfortErrorPiecewise) {
  ThermalModel thermal(ThermalConfig{});
  thermal.set_indoor_temp_c(21.0);
  EXPECT_DOUBLE_EQ(thermal.ComfortErrorC(), 0.0);
  thermal.set_indoor_temp_c(25.0);
  EXPECT_DOUBLE_EQ(thermal.ComfortErrorC(), 25.0 - ThermalConfig{}.optimal_high_c);
  thermal.set_indoor_temp_c(17.0);
  EXPECT_DOUBLE_EQ(thermal.ComfortErrorC(), ThermalConfig{}.optimal_low_c - 17.0);
}

TEST(Thermal, ConfigValidation) {
  ThermalConfig bad;
  bad.optimal_low_c = 25.0;
  bad.optimal_high_c = 20.0;
  EXPECT_THROW(ThermalModel{bad}, std::invalid_argument);
}

TEST(Thermal, HvacModeMapping) {
  EXPECT_EQ(HvacModeFromThermostatState(0), HvacMode::kHeat);
  EXPECT_EQ(HvacModeFromThermostatState(1), HvacMode::kCool);
  EXPECT_EQ(HvacModeFromThermostatState(2), HvacMode::kOff);
  EXPECT_THROW(HvacModeFromThermostatState(3), std::out_of_range);
}

class ScenarioSuite : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioSuite, SeriesShapesAndInvariants) {
  const ScenarioGenerator generator({}, {}, {}, 77);
  const DayScenario scenario = generator.Generate(GetParam());
  EXPECT_EQ(scenario.occupied.size(),
            static_cast<std::size_t>(util::kMinutesPerDay));
  EXPECT_EQ(scenario.outdoor_c.size(), scenario.occupied.size());
  EXPECT_EQ(scenario.price_usd_per_kwh.size(), scenario.occupied.size());
  EXPECT_GT(scenario.sleep_minute, scenario.wake_minute);
  // Departures and arrivals pair up and order correctly.
  ASSERT_EQ(scenario.departure_minutes.size(),
            scenario.arrival_minutes.size());
  for (std::size_t i = 0; i < scenario.departure_minutes.size(); ++i) {
    EXPECT_LT(scenario.departure_minutes[i], scenario.arrival_minutes[i]);
    // House is empty strictly between departure and arrival.
    EXPECT_FALSE(scenario.occupied[static_cast<std::size_t>(
        scenario.departure_minutes[i])]);
    EXPECT_TRUE(scenario.occupied[static_cast<std::size_t>(
        scenario.arrival_minutes[i])]);
  }
  // Demands are sorted and reference real devices.
  for (std::size_t i = 1; i < scenario.demands.size(); ++i) {
    EXPECT_LE(scenario.demands[i - 1].preferred_minute,
              scenario.demands[i].preferred_minute);
  }
  for (const auto& demand : scenario.demands) {
    EXPECT_GE(demand.preferred_minute, 0);
    EXPECT_LT(demand.preferred_minute, util::kMinutesPerDay);
    EXPECT_GT(demand.duration_minutes, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Days, ScenarioSuite,
                         ::testing::Values(0, 3, 5, 6, 42, 100, 200, 364));

TEST(Scenario, DeterministicPerSeedAndDay) {
  const ScenarioGenerator a({}, {}, {}, 5);
  const ScenarioGenerator b({}, {}, {}, 5);
  const auto sa = a.Generate(10);
  const auto sb = b.Generate(10);
  EXPECT_EQ(sa.wake_minute, sb.wake_minute);
  EXPECT_EQ(sa.departure_minutes, sb.departure_minutes);
  EXPECT_EQ(sa.occupied, sb.occupied);
  const auto other_day = a.Generate(11);
  EXPECT_NE(sa.wake_minute, other_day.wake_minute);
}

TEST(Scenario, WeekdaysHaveWorkDeparture) {
  const ScenarioGenerator generator({}, {}, {}, 21);
  int weekday_departures = 0, weekdays = 0;
  for (int day = 0; day < 14; ++day) {
    const auto scenario = generator.Generate(day);
    if (!scenario.weekend) {
      ++weekdays;
      weekday_departures += scenario.departure_minutes.empty() ? 0 : 1;
    }
  }
  EXPECT_EQ(weekday_departures, weekdays);
}

}  // namespace
}  // namespace jarvis::sim
