// End-to-end observability: runs the full learn→optimize→suggest pipeline
// with metrics wired and pins (a) the golden-determinism contract — the
// deterministic snapshot subset is bit-identical across reruns of the same
// seeded workload — and (b) the cross-stage counter invariants that hold
// by construction.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/jarvis.h"
#include "obs/snapshot.h"
#include "sim/testbed.h"

namespace jarvis::core {
namespace {

struct PipelineRun {
  std::unique_ptr<Jarvis> jarvis;
  std::size_t events_fed = 0;
  std::size_t episodes_learned = 0;
};

class ObsPipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::TestbedConfig config;
    config.benign_anomaly_samples = 2000;
    testbed_ = new sim::Testbed(config);
  }
  static void TearDownTestSuite() {
    delete testbed_;
    testbed_ = nullptr;
  }

  // One full seeded pipeline: raw events through the parser, SPL learning,
  // a (tiny) DQN optimization, and one deployment suggestion. Everything
  // is seeded, so reruns are bit-identical.
  static PipelineRun RunPipeline() {
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
    config.trainer.episodes = 4;
    config.restarts = 1;
    PipelineRun run;
    run.events_fed = events.size();
    run.jarvis = std::make_unique<Jarvis>(testbed_->home_a(), config);
    run.episodes_learned = run.jarvis->LearnFromEvents(
        events, resident.OvernightState(), util::SimTime(0),
        testbed_->BuildTrainingSet());
    const sim::DayTrace day = testbed_->home_b_data().Day(1);
    run.jarvis->OptimizeDay(day, rl::RewardWeights{});
    run.jarvis->SuggestAction(day.episode.initial_state(), 480);
    return run;
  }

  static sim::Testbed* testbed_;
};

sim::Testbed* ObsPipelineFixture::testbed_ = nullptr;

TEST_F(ObsPipelineFixture, GoldenSnapshotIdenticalAcrossReruns) {
  const PipelineRun first = RunPipeline();
  const PipelineRun second = RunPipeline();
  const obs::MetricsSnapshot golden_a =
      first.jarvis->TakeMetricsSnapshot().DeterministicOnly();
  const obs::MetricsSnapshot golden_b =
      second.jarvis->TakeMetricsSnapshot().DeterministicOnly();
  EXPECT_FALSE(golden_a.empty());
  // Metrics are observational: the deterministic subset must be
  // bit-identical across reruns of the same seeded workload (timers keep
  // ticking, which is exactly what DeterministicOnly strips).
  EXPECT_EQ(golden_a, golden_b);
}

TEST_F(ObsPipelineFixture, CounterInvariantsAcrossStages) {
  const PipelineRun run = RunPipeline();
  const obs::MetricsSnapshot snapshot = run.jarvis->TakeMetricsSnapshot();

  // Parser conservation: every event offered is accepted or dropped.
  const std::uint64_t seen =
      snapshot.CounterValue("events.parser.events_seen");
  EXPECT_EQ(seen, run.events_fed);
  EXPECT_EQ(seen,
            snapshot.CounterValue("events.parser.events_accepted") +
                snapshot.CounterValue("events.parser.events_dropped"));

  // The obs counters mirror the pipeline's own degradation accounting.
  const HealthReport& health = run.jarvis->Health();
  EXPECT_EQ(seen, health.parse.events_seen);
  EXPECT_EQ(snapshot.CounterValue("events.parser.episodes_parsed"),
            run.episodes_learned);
  EXPECT_EQ(snapshot.CounterValue("spl.learner.episodes_used"),
            health.learn.episodes_used);
  EXPECT_EQ(snapshot.CounterValue("spl.learner.episodes_skipped"),
            health.learn.episodes_skipped);
  EXPECT_EQ(snapshot.CounterValue("spl.learner.episodes_offered"),
            health.learn.episodes_used + health.learn.episodes_skipped);
  EXPECT_EQ(snapshot.CounterValue("spl.learner.observations"),
            health.learn.observations);
  // One Learn call trained the ANN filter once, under its own timer.
  const auto& ann_train = snapshot.FindHistogram("spl.learner.ann_train_us");
  EXPECT_EQ(ann_train.count, 1u);
  EXPECT_FALSE(ann_train.deterministic);

  // Facade call counters.
  EXPECT_EQ(snapshot.CounterValue("core.jarvis.learn_calls"), 1u);
  EXPECT_EQ(snapshot.CounterValue("core.jarvis.optimize_calls"), 1u);
  EXPECT_EQ(snapshot.CounterValue("core.jarvis.suggest_calls"), 1u);

  // The DQN stage ran and reported.
  EXPECT_GE(snapshot.CounterValue("rl.trainer.episodes"), 4u);
  EXPECT_GT(snapshot.CounterValue("rl.trainer.steps"), 0u);
  EXPECT_GT(snapshot.CounterValue("rl.agent.actions_selected"), 0u);
  EXPECT_GT(snapshot.CounterValue("rl.agent.replay_batches"), 0u);
  EXPECT_EQ(snapshot.FindHistogram("rl.agent.replay_loss").count,
            snapshot.CounterValue("rl.agent.replay_batches"));
}

}  // namespace
}  // namespace jarvis::core
