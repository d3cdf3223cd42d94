#include "sim/resident.h"

#include <gtest/gtest.h>

#include "fsm/device_library.h"
#include "sim/smartstar.h"
#include "sim/testbed.h"

namespace jarvis::sim {
namespace {

class ResidentFixture : public ::testing::Test {
 protected:
  ResidentFixture() : home_(fsm::BuildFullHome()) {}

  DayTrace SimulatePerfectDay(int day) {
    ResidentSimulator resident(home_, ThermalConfig{}, 3,
                               BehaviorConfig{0.0, 1});
    const ScenarioGenerator generator({}, {}, {}, 5);
    return resident.SimulateDay(generator.Generate(day),
                                resident.OvernightState(), 21.0);
  }

  fsm::EnvironmentFsm home_;
};

TEST_F(ResidentFixture, EpisodeIsCompleteMinuteResolution) {
  const DayTrace trace = SimulatePerfectDay(1);
  EXPECT_TRUE(trace.episode.IsComplete());
  EXPECT_EQ(trace.episode.size(),
            static_cast<std::size_t>(util::kMinutesPerDay));
  EXPECT_EQ(trace.indoor_c.size(),
            static_cast<std::size_t>(util::kMinutesPerDay));
}

TEST_F(ResidentFixture, OvernightStateSemantics) {
  ResidentSimulator resident(home_, ThermalConfig{}, 3);
  const auto state = resident.OvernightState();
  const auto& lock = home_.device(home_.DeviceIdByLabel("lock"));
  EXPECT_EQ(state[static_cast<std::size_t>(lock.id())],
            *lock.FindState("locked_outside"));
  const auto& light = home_.device(home_.DeviceIdByLabel("light"));
  EXPECT_EQ(state[static_cast<std::size_t>(light.id())],
            *light.FindState("off"));
}

TEST_F(ResidentFixture, DepartureSequenceLocksAndShutsDown) {
  const DayTrace trace = SimulatePerfectDay(1);  // day 1 is a weekday
  ASSERT_FALSE(trace.scenario.departure_minutes.empty());
  const int departure = trace.scenario.departure_minutes[0];
  const auto lock_id =
      static_cast<std::size_t>(home_.DeviceIdByLabel("lock"));
  const auto thermostat_id =
      static_cast<std::size_t>(home_.DeviceIdByLabel("thermostat"));

  // After the departure sequence the door is locked from outside and (in a
  // perfect-behavior run) the thermostat is off.
  const auto& after =
      trace.episode.steps()[static_cast<std::size_t>(departure) + 2];
  EXPECT_EQ(after.state[lock_id],
            *home_.device(0).FindState("locked_outside"));
  EXPECT_EQ(after.state[thermostat_id],
            *home_.device(3).FindState("off"));
}

TEST_F(ResidentFixture, ArrivalUnlocksViaAuthUserBlip) {
  const DayTrace trace = SimulatePerfectDay(1);
  ASSERT_FALSE(trace.scenario.arrival_minutes.empty());
  const int arrival = trace.scenario.arrival_minutes[0];
  const auto door_id =
      static_cast<std::size_t>(home_.DeviceIdByLabel("door_sensor"));
  const auto lock_id = static_cast<std::size_t>(home_.DeviceIdByLabel("lock"));

  const auto& at = trace.episode.steps()[static_cast<std::size_t>(arrival)];
  EXPECT_EQ(at.state[door_id], *home_.device(1).FindState("auth_user"));
  EXPECT_EQ(at.action[lock_id], *home_.device(0).FindAction("unlock"));
  // One minute later the sensor has relaxed to sensing and the door is
  // unlocked.
  const auto& after =
      trace.episode.steps()[static_cast<std::size_t>(arrival) + 1];
  EXPECT_EQ(after.state[lock_id], *home_.device(0).FindState("unlocked"));
}

TEST_F(ResidentFixture, NoActionsWhileEveryoneAway) {
  const DayTrace trace = SimulatePerfectDay(1);
  const int departure = trace.scenario.departure_minutes[0];
  const int arrival = trace.scenario.arrival_minutes[0];
  // Between (departure + shutdown) and arrival, appliance demand actions
  // do not fire (fridge/oven/coffee are only used when home and awake).
  for (int m = departure + 3; m < arrival; ++m) {
    const auto& step = trace.episode.steps()[static_cast<std::size_t>(m)];
    for (std::size_t d = 0; d < home_.device_count(); ++d) {
      EXPECT_EQ(step.action[d], fsm::kNoAction)
          << "device " << home_.devices()[d].label() << " acted at minute "
          << m << " while away";
    }
  }
}

TEST_F(ResidentFixture, DemandsExecuteAtPreferredTimes) {
  const DayTrace trace = SimulatePerfectDay(1);
  const auto coffee_id =
      static_cast<std::size_t>(home_.DeviceIdByLabel("coffee_maker"));
  bool brewed = false;
  for (const auto& step : trace.episode.steps()) {
    if (step.action[coffee_id] != fsm::kNoAction &&
        home_.device(10).action_name(step.action[coffee_id]) == "brew") {
      brewed = true;
      // Coffee brews near wake-up.
      EXPECT_NEAR(step.time.minute_of_day(), trace.scenario.wake_minute + 10,
                  2);
    }
  }
  EXPECT_TRUE(brewed);
}

TEST_F(ResidentFixture, MetricsArePhysicallyPlausible) {
  const DayTrace trace = SimulatePerfectDay(1);
  EXPECT_GT(trace.metrics.energy_kwh, 1.0);
  EXPECT_LT(trace.metrics.energy_kwh, 200.0);
  EXPECT_GT(trace.metrics.cost_usd, 0.0);
  EXPECT_GE(trace.metrics.comfort_error_c_min, 0.0);
  EXPECT_LE(trace.metrics.comfort_error_c_min,
            trace.metrics.comfort_error_all_c_min + 1e-9);
}

TEST_F(ResidentFixture, ForgetfulnessIncreasesEnergyOnAverage) {
  // Hold the thermostat reaction time fixed so the *only* difference is
  // whether the leave-home shutdown fires; forgetting then strictly wastes
  // energy on days where devices were running at departure.
  const ScenarioGenerator generator({}, {}, {}, 5);
  double tidy_total = 0.0, forgetful_total = 0.0;
  ResidentSimulator tidy(home_, ThermalConfig{}, 3, BehaviorConfig{0.0, 25});
  ResidentSimulator forgetful(home_, ThermalConfig{}, 3,
                              BehaviorConfig{1.0, 25});
  for (int day = 0; day < 10; ++day) {
    const auto scenario = generator.Generate(day);
    tidy_total += tidy.SimulateDay(scenario, tidy.OvernightState(), 21.0)
                      .metrics.energy_kwh;
    forgetful_total +=
        forgetful.SimulateDay(scenario, forgetful.OvernightState(), 21.0)
            .metrics.energy_kwh;
  }
  EXPECT_GT(forgetful_total, tidy_total);
}

TEST_F(ResidentFixture, MultiDayCarriesStateAcrossMidnight) {
  ResidentSimulator resident(home_, ThermalConfig{}, 3);
  const ScenarioGenerator generator({}, {}, {}, 5);
  const auto traces = resident.SimulateDays(generator, 0, 3);
  ASSERT_EQ(traces.size(), 3u);
  for (std::size_t d = 1; d < traces.size(); ++d) {
    EXPECT_EQ(traces[d].episode.initial_state(),
              traces[d - 1].episode.FinalState(home_));
    EXPECT_EQ(traces[d].scenario.day, static_cast<int>(d));
  }
}

TEST_F(ResidentFixture, EventsCoverAllStateChanges) {
  const DayTrace trace = SimulatePerfectDay(2);
  EXPECT_GT(trace.events.size(), 10u);
  // Every command event names a real device and action.
  for (const auto& event : trace.events) {
    const auto& device = home_.DeviceByLabel(event.device_label);
    EXPECT_TRUE(device.FindState(event.attribute_value).has_value())
        << event.attribute_value;
    if (!event.command.empty()) {
      EXPECT_TRUE(device.FindAction(event.command).has_value());
    }
  }
}

TEST(SmartStar, DaysAreDeterministicAndSeasonal) {
  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  const SmartStarDataset data(home, 31);
  const DayTrace a = data.Day(42);
  const DayTrace b = data.Day(42);
  EXPECT_EQ(a.metrics.energy_kwh, b.metrics.energy_kwh);
  // New England winter (day 42 = Feb) needs more energy than a mild fall
  // day; compare heating demand via outdoor temperature.
  const DayTrace fall = data.Day(280);
  EXPECT_LT(a.scenario.outdoor_c[720], fall.scenario.outdoor_c[720]);
}

TEST(SmartStar, SampleDaysDistinctAndInRange) {
  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  const SmartStarDataset data(home, 31);
  const auto days = data.SampleDays(30, 7);
  EXPECT_EQ(days.size(), 30u);
  std::set<int> unique(days.begin(), days.end());
  EXPECT_EQ(unique.size(), 30u);
  for (int day : days) {
    EXPECT_GE(day, 0);
    EXPECT_LT(day, 365);
  }
  // Deterministic per (seed, sample_seed).
  EXPECT_EQ(data.SampleDays(30, 7), days);
  EXPECT_NE(data.SampleDays(30, 8), days);
}

TEST(Testbed, FigureFourTopology) {
  TestbedConfig config;
  config.benign_anomaly_samples = 500;
  const Testbed testbed(config);
  EXPECT_EQ(testbed.home_a().device_count(), 11u);
  EXPECT_EQ(testbed.home_b().device_count(), 11u);
  const auto episodes = testbed.HomeALearningEpisodes();
  EXPECT_EQ(episodes.size(), 14u);  // L: 14 days spread across the year
  for (const auto& episode : episodes) EXPECT_TRUE(episode.IsComplete());
}

TEST(Testbed, LearningDaysSpanSeasons) {
  TestbedConfig config;
  config.benign_anomaly_samples = 500;
  const Testbed testbed(config);
  const auto traces = testbed.HomeALearningTraces();
  // Both heating-dominant and cooling-dominant days must appear so P_safe
  // covers seasonal thermostat behavior.
  bool cold_day = false, warm_day = false;
  for (const auto& trace : traces) {
    const double noon = trace.scenario.outdoor_c[720];
    if (noon < 10.0) cold_day = true;
    if (noon > 22.0) warm_day = true;
  }
  EXPECT_TRUE(cold_day);
  EXPECT_TRUE(warm_day);
}

}  // namespace
}  // namespace jarvis::sim
