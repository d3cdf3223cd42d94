#include "core/jarvis.h"

#include <gtest/gtest.h>

#include "core/benefit_space.h"
#include "sim/testbed.h"

namespace jarvis::core {
namespace {

class JarvisFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::TestbedConfig testbed_config;
    testbed_config.benign_anomaly_samples = 2000;
    testbed_ = new sim::Testbed(testbed_config);
    JarvisConfig config;
    config.trainer.episodes = 8;  // fast enough for unit tests
    jarvis_ = new Jarvis(testbed_->home_a(), config);
    jarvis_->LearnPolicies(testbed_->HomeALearningEpisodes(),
                           testbed_->BuildTrainingSet());
  }
  static void TearDownTestSuite() {
    delete jarvis_;
    delete testbed_;
    jarvis_ = nullptr;
    testbed_ = nullptr;
  }

  static sim::Testbed* testbed_;
  static Jarvis* jarvis_;
};

sim::Testbed* JarvisFixture::testbed_ = nullptr;
Jarvis* JarvisFixture::jarvis_ = nullptr;

TEST_F(JarvisFixture, LearnedStateExposed) {
  EXPECT_TRUE(jarvis_->learned());
  EXPECT_GT(jarvis_->learner().table().admitted_key_count(), 0u);
}

TEST_F(JarvisFixture, GuardsBeforeLearning) {
  JarvisConfig config;
  Jarvis fresh(testbed_->home_a(), config);
  const sim::DayTrace day = testbed_->home_b_data().Day(1);
  EXPECT_THROW(fresh.OptimizeDay(day, rl::RewardWeights{}), std::logic_error);
  EXPECT_THROW(fresh.Audit(day.episode), std::logic_error);
  EXPECT_THROW(fresh.SuggestAction(day.episode.initial_state(), 0),
               std::logic_error);
}

TEST_F(JarvisFixture, OptimizeDayProducesComparableMetrics) {
  const sim::DayTrace day = testbed_->home_b_data().Day(5);
  const DayPlan plan = jarvis_->OptimizeDay(day, rl::RewardWeights{});
  EXPECT_EQ(plan.violations, 0u);
  EXPECT_GT(plan.normal_metrics.energy_kwh, 0.0);
  EXPECT_GT(plan.optimized_metrics.energy_kwh, 0.0);
  EXPECT_FALSE(plan.train.episode_rewards.empty());
  EXPECT_TRUE(plan.train.greedy_episode.IsComplete());
}

TEST_F(JarvisFixture, SuggestActionIsSafeAndShaped) {
  const sim::DayTrace day = testbed_->home_b_data().Day(5);
  jarvis_->OptimizeDay(day, rl::RewardWeights{});
  for (int minute : {60, 480, 720, 1200}) {
    const auto action =
        jarvis_->SuggestAction(day.episode.initial_state(), minute);
    EXPECT_EQ(action.size(), testbed_->home_a().device_count());
    // Every suggested mini-action must be whitelisted.
    for (std::size_t d = 0; d < action.size(); ++d) {
      if (action[d] == fsm::kNoAction) continue;
      EXPECT_TRUE(jarvis_->learner().table().IsMiniActionSafe(
          day.episode.initial_state(),
          {static_cast<fsm::DeviceId>(d), action[d]}, minute));
    }
  }
}

TEST_F(JarvisFixture, AuditFlagsInjectedAttack) {
  const auto violations = testbed_->BuildViolations();
  const auto base = testbed_->HomeALearningEpisodes().front();
  const auto injected = sim::AttackGenerator::InjectIntoEpisode(
      testbed_->home_a(), base, violations.front());
  const auto audit = jarvis_->Audit(injected);
  EXPECT_GE(audit.violations, 1u);
  // The learning episode itself audits clean of violations.
  const auto clean = jarvis_->Audit(base);
  EXPECT_EQ(clean.violations, 0u);
}

TEST_F(JarvisFixture, LearnFromEventsFullPipeline) {
  // Feed raw (normalized) events through the parser path.
  sim::ResidentSimulator resident(testbed_->home_a(), sim::ThermalConfig{},
                                  404, sim::BehaviorConfig{0.0, 1});
  const auto generator = testbed_->home_a_generator();
  std::vector<events::Event> events;
  fsm::StateVector state = resident.OvernightState();
  double indoor = 21.0;
  for (int day = 0; day < 2; ++day) {
    const auto trace =
        resident.SimulateDay(generator.Generate(day), state, indoor);
    events.insert(events.end(), trace.events.begin(), trace.events.end());
    state = trace.episode.FinalState(testbed_->home_a());
    indoor = trace.indoor_c.back();
  }
  JarvisConfig config;
  Jarvis fresh(testbed_->home_a(), config);
  const std::size_t episodes = fresh.LearnFromEvents(
      events, resident.OvernightState(), util::SimTime(0),
      testbed_->BuildTrainingSet());
  EXPECT_EQ(episodes, 2u);
  EXPECT_TRUE(fresh.learned());
  EXPECT_THROW(fresh.LearnFromEvents({}, resident.OvernightState(),
                                     util::SimTime(0), {}),
               std::invalid_argument);
}

TEST_F(JarvisFixture, HealthReportAggregatesPipelineCounters) {
  sim::ResidentSimulator resident(testbed_->home_a(), sim::ThermalConfig{},
                                  404, sim::BehaviorConfig{0.0, 1});
  const auto generator = testbed_->home_a_generator();
  const auto trace = resident.SimulateDay(generator.Generate(0),
                                          resident.OvernightState(), 21.0);

  JarvisConfig config;
  config.trainer.episodes = 2;
  config.restarts = 1;
  Jarvis fresh(testbed_->home_a(), config);
  EXPECT_FALSE(fresh.Health().degraded());

  fresh.LearnFromEvents(trace.events, resident.OvernightState(),
                        util::SimTime(0), testbed_->BuildTrainingSet());
  const HealthReport& health = fresh.Health();
  EXPECT_EQ(health.parse.events_seen, trace.events.size());
  EXPECT_TRUE(health.parse.WithinBudget());
  EXPECT_EQ(health.learn.episodes_used, 1u);
  EXPECT_EQ(health.learn.episodes_skipped, 0u);
  EXPECT_GT(health.learn.observations, 0u);
  EXPECT_FALSE(health.degraded());

  // A monitor's denials fold in.
  OnlineMonitor monitor(testbed_->home_a(), fresh.learner(),
                        resident.OvernightState());
  monitor.MarkStateUnknown(0);
  events::Event unlock;
  unlock.date = util::SimTime(120);
  unlock.device_label = "lock";
  unlock.attribute_value = "unlocked";
  unlock.command = "unlock";
  monitor.Consume(unlock);
  fresh.NoteMonitor(monitor);
  EXPECT_EQ(fresh.Health().monitor_failsafe_denials, 1u);
  EXPECT_TRUE(fresh.Health().degraded());
}

TEST_F(JarvisFixture, LearnFromEventsEnforcesParseDropBudget) {
  sim::ResidentSimulator resident(testbed_->home_a(), sim::ThermalConfig{},
                                  404, sim::BehaviorConfig{0.0, 1});
  const auto generator = testbed_->home_a_generator();
  auto trace = resident.SimulateDay(generator.Generate(0),
                                    resident.OvernightState(), 21.0);
  // Mangle a third of the stream into unknown devices: beyond the default
  // 25% budget, the facade must refuse to learn from the wreckage.
  for (std::size_t i = 0; i < trace.events.size(); i += 3) {
    trace.events[i].device_label = "ghost";
  }
  JarvisConfig config;
  Jarvis fresh(testbed_->home_a(), config);
  EXPECT_THROW(fresh.LearnFromEvents(trace.events, resident.OvernightState(),
                                     util::SimTime(0),
                                     testbed_->BuildTrainingSet()),
               std::runtime_error);
  EXPECT_FALSE(fresh.Health().parse.WithinBudget());
  EXPECT_TRUE(fresh.Health().degraded());

  // Raising the budget lets the pipeline degrade gracefully instead.
  config.parse_drop_budget = 0.5;
  Jarvis lax(testbed_->home_a(), config);
  lax.LearnFromEvents(trace.events, resident.OvernightState(),
                      util::SimTime(0), testbed_->BuildTrainingSet());
  EXPECT_TRUE(lax.learned());
  EXPECT_GT(lax.Health().parse.stats.unknown_device, 0u);
}

TEST_F(JarvisFixture, MetricForSelectsFocusedMetric) {
  sim::DayMetrics metrics;
  metrics.energy_kwh = 1.0;
  metrics.cost_usd = 2.0;
  metrics.comfort_error_c_min = 3.0;
  EXPECT_DOUBLE_EQ(MetricFor("energy", metrics), 1.0);
  EXPECT_DOUBLE_EQ(MetricFor("cost", metrics), 2.0);
  EXPECT_DOUBLE_EQ(MetricFor("temp", metrics), 3.0);
  EXPECT_THROW(MetricFor("bogus", metrics), std::invalid_argument);
}

TEST_F(JarvisFixture, ExplorationComparisonShapes) {
  const sim::DayTrace day = testbed_->home_b_data().Day(3);
  JarvisConfig config;
  ExplorationConfig exploration;
  exploration.episodes = 2;
  const auto points = ExplorationComparison(
      testbed_->home_a(), jarvis_->learner(), day, config, exploration);
  ASSERT_EQ(points.size(), 2u);
  for (const auto& point : points) {
    EXPECT_EQ(point.constrained_violations, 0u);
  }
  // Unconstrained exploration commits violations while epsilon is high.
  EXPECT_GT(points.front().unconstrained_violations, 0u);
}

}  // namespace
}  // namespace jarvis::core
