// End-to-end integration: the small-scale version of the paper's full
// evaluation, exercised as one pipeline — simulate, log, parse, learn,
// detect, filter, optimize.
#include <gtest/gtest.h>

#include "core/benefit_space.h"
#include "core/jarvis.h"
#include "events/logger_app.h"
#include "sim/testbed.h"
#include "util/stats.h"

namespace jarvis {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::TestbedConfig config;
    config.benign_anomaly_samples = 3000;
    testbed_ = new sim::Testbed(config);
    core::JarvisConfig jarvis_config;
    jarvis_config.trainer.episodes = 10;
    jarvis_ = new core::Jarvis(testbed_->home_a(), jarvis_config);
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
  static core::Jarvis* jarvis_;
};

sim::Testbed* EndToEnd::testbed_ = nullptr;
core::Jarvis* EndToEnd::jarvis_ = nullptr;

TEST_F(EndToEnd, SecurityEvaluationSmallScale) {
  // Paper Section VI-B at reduced scale: every violation injected into
  // several random episodes; the SPL must flag each injected episode.
  const auto violations = testbed_->BuildViolations();
  sim::ResidentSimulator resident(testbed_->home_a(), sim::ThermalConfig{},
                                  2024);
  const auto generator = testbed_->home_a_generator();
  const auto base_days = {20, 33, 47};

  std::vector<fsm::Episode> bases;
  for (int day : base_days) {
    bases.push_back(resident
                        .SimulateDay(generator.Generate(day),
                                     resident.OvernightState(), 21.0)
                        .episode);
  }

  std::size_t flagged = 0;
  std::size_t total = 0;
  util::Rng rng(99);
  for (std::size_t v = 0; v < violations.size(); v += 10) {
    for (const auto& base : bases) {
      const auto injected = sim::AttackGenerator::InjectIntoEpisode(
          testbed_->home_a(), base, violations[v]);
      const auto audit = jarvis_->Audit(injected);
      ++total;
      if (audit.violations > 0) ++flagged;
    }
  }
  EXPECT_EQ(flagged, total) << "every malicious episode must be flagged";
}

TEST_F(EndToEnd, FalsePositiveEvaluationSmallScale) {
  // Paper Section VI-C at reduced scale: benign anomalous episodes after
  // the learning phase are overwhelmingly classified benign.
  sim::AnomalyGenerator anomalies(testbed_->home_a(), 555);
  sim::ResidentSimulator resident(testbed_->home_a(), sim::ThermalConfig{},
                                  556);
  const auto generator = testbed_->home_a_generator();
  const auto base = resident.SimulateDay(generator.Generate(25),
                                         resident.OvernightState(), 21.0);

  // Human errors happen while someone is home: use an at-home context.
  fsm::StateVector context = base.episode.initial_state();
  context[0] = *testbed_->home_a().device(0).FindState("unlocked");
  int false_positives = 0;
  const int trials = 150;
  for (int i = 0; i < trials; ++i) {
    const auto instance = anomalies.Generate(context);
    const auto verdict =
        jarvis_->learner().Classify(context, instance.action, instance.minute);
    if (verdict == spl::Verdict::kViolation) ++false_positives;
  }
  const double fp_rate = static_cast<double>(false_positives) / trials;
  EXPECT_LT(fp_rate, 0.1) << "paper reports 0.8% false positives";
}

TEST_F(EndToEnd, RocCurveIsStronglySeparable) {
  // Fig. 5 analogue: benign anomalies vs malicious transitions by ANN
  // benign-score.
  sim::AnomalyGenerator anomalies(testbed_->home_a(), 777);
  const auto violations = testbed_->BuildViolations();
  fsm::StateVector state(testbed_->home_a().device_count(), 0);
  state[0] = *testbed_->home_a().device(0).FindState("unlocked");

  std::vector<double> scores;
  std::vector<bool> labels;
  for (int i = 0; i < 100; ++i) {
    const auto instance = anomalies.Generate(state);
    scores.push_back(jarvis_->learner().BenignScore(
        {state, instance.action, instance.minute}));
    labels.push_back(true);
  }
  for (std::size_t v = 0; v < violations.size(); v += 2) {
    scores.push_back(jarvis_->learner().BenignScore(
        {violations[v].state, violations[v].action, violations[v].minute}));
    labels.push_back(false);
  }
  const double auc = util::RocAuc(util::RocCurve(scores, labels));
  EXPECT_GT(auc, 0.95);
}

TEST_F(EndToEnd, OptimizedDayBeatsNormalOnFocusedMetric) {
  // Fig. 6 analogue at one point: f_energy = 0.9 must cut energy use well
  // below normal behavior while committing zero violations.
  const sim::DayTrace day = testbed_->home_b_data().Day(42);
  const auto plan =
      jarvis_->OptimizeDay(day, rl::RewardWeights::Sweep("energy", 0.9));
  EXPECT_LT(plan.optimized_metrics.energy_kwh,
            plan.normal_metrics.energy_kwh * 0.8);
  EXPECT_EQ(plan.violations, 0u);
}

TEST_F(EndToEnd, LogPipelineFeedsJarvis) {
  // Resident events are written as log text (one JSON line per event), and
  // that log is parsed back into learning episodes via LearnFromEvents.
  sim::ResidentSimulator resident(testbed_->home_a(), sim::ThermalConfig{},
                                  31, sim::BehaviorConfig{0.0, 1});
  const auto generator = testbed_->home_a_generator();
  const auto trace = resident.SimulateDay(generator.Generate(0),
                                          resident.OvernightState(), 21.0);

  // Round-trip through the on-disk format.
  std::string log;
  for (const auto& event : trace.events) log += event.ToLogLine() + "\n";
  std::size_t dropped = 0;
  const auto reloaded = events::LoggerApp::ParseLog(log, &dropped);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(reloaded, trace.events);

  core::JarvisConfig config;
  core::Jarvis fresh(testbed_->home_a(), config);
  const std::size_t episodes =
      fresh.LearnFromEvents(reloaded, resident.OvernightState(),
                            util::SimTime(0), testbed_->BuildTrainingSet());
  EXPECT_EQ(episodes, 1u);
  EXPECT_TRUE(fresh.learned());
}

TEST_F(EndToEnd, FunctionalitySweepSmall) {
  // One-point sweep through the public API used by the benches. Two
  // stratified days (winter + summer); on deep-winter days the chi-balanced
  // comfort dis-utility makes Jarvis heat properly, so the energy win comes
  // from the mild day and from not wasting — allow a modest margin rather
  // than a strict beat on this tiny sample.
  core::SweepConfig config;
  config.focus = "energy";
  config.f_values = {0.9};
  config.days = 2;
  const auto points =
      core::FunctionalitySweep(*jarvis_, testbed_->home_b_data(), config);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].violations, 0u);
  EXPECT_LT(points[0].jarvis_mean, points[0].normal_mean * 1.5);
}

}  // namespace
}  // namespace jarvis
