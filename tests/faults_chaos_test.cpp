// Chaos suite: sweeps fault schedules over the full event -> parser -> SPL
// -> constrained-DQN pipeline and checks the graceful-degradation contract:
// no crashes, zero committed safety violations, bounded metric drift, exact
// counter accounting against injected ground truth, and bit-for-bit
// baseline reproduction when every fault rate is zero.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/jarvis.h"
#include "core/online_monitor.h"
#include "faults/injector.h"
#include "sim/testbed.h"

namespace jarvis::core {
namespace {

faults::FaultSpec Spec(faults::FaultKind kind, double rate,
                       int delay_minutes = 5) {
  faults::FaultSpec spec;
  spec.kind = kind;
  spec.rate = rate;
  spec.delay_minutes = delay_minutes;
  return spec;
}

struct ChaosOutcome {
  DayPlan plan;
  HealthReport health;
  // Ground truth of what the injector put into the stream.
  faults::FaultCounters ground_truth;
  std::size_t faulted_events = 0;
  std::size_t monitor_events = 0;
};

class ChaosFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::TestbedConfig config;
    config.benign_anomaly_samples = 800;
    testbed_ = new sim::Testbed(config);
    // Two contiguous Home A days from day 0, states carried across
    // midnight, so the parser sees one gap-free stream.
    sim::ResidentSimulator resident(testbed_->home_a(), sim::ThermalConfig{},
                                    config.seed ^ 0xa11ceULL);
    const auto traces =
        resident.SimulateDays(testbed_->home_a_generator(), 0, 2);
    initial_ = new fsm::StateVector(traces.front().episode.initial_state());
    events_ = new std::vector<events::Event>();
    for (const auto& trace : traces) {
      events_->insert(events_->end(), trace.events.begin(),
                      trace.events.end());
    }
    training_ = new std::vector<sim::LabeledSample>(
        testbed_->BuildTrainingSet());
  }
  static void TearDownTestSuite() {
    delete training_;
    delete events_;
    delete initial_;
    delete testbed_;
    training_ = nullptr;
    events_ = nullptr;
    initial_ = nullptr;
    testbed_ = nullptr;
  }

  // Full pipeline under one schedule: inject -> learn from the faulted
  // stream -> optimize a day -> stream the faulted events through the
  // fail-safe monitor -> collect health.
  static ChaosOutcome RunPipeline(const faults::FaultSchedule& schedule) {
    faults::FaultInjector injector(schedule);
    const auto faulted = injector.Apply(*events_);

    JarvisConfig config;
    config.trainer.episodes = 3;
    config.restarts = 1;
    config.parse_drop_budget = 0.9;
    config.spl.min_episode_fraction = 0.25;
    Jarvis jarvis(testbed_->home_a(), config);
    jarvis.LearnFromEvents(faulted, *initial_, util::SimTime(0), *training_);

    ChaosOutcome outcome;
    outcome.plan =
        jarvis.OptimizeDay(testbed_->home_b_data().Day(5), rl::RewardWeights{});

    OnlineMonitor monitor(testbed_->home_a(), jarvis.learner(), *initial_);
    for (const auto& event : faulted) monitor.Consume(event);
    jarvis.NoteMonitor(monitor);

    outcome.health = jarvis.Health();
    outcome.ground_truth = injector.counters();
    outcome.faulted_events = faulted.size();
    outcome.monitor_events = monitor.events_consumed();
    return outcome;
  }

  static void ExpectDegradedButSafe(const ChaosOutcome& outcome) {
    // Zero committed safety violations: the constrained policy never acts
    // off-whitelist no matter how degraded its learning input was.
    EXPECT_EQ(outcome.plan.violations, 0u);
    EXPECT_EQ(outcome.plan.train.episode_rewards.size(), 3u);
    EXPECT_TRUE(std::isfinite(outcome.plan.train.greedy_reward));
    // Bounded metric drift: a policy learnt from a degraded stream may be
    // worse, but not unboundedly so.
    EXPECT_GT(outcome.plan.optimized_metrics.energy_kwh, 0.0);
    EXPECT_LE(outcome.plan.optimized_metrics.energy_kwh,
              outcome.plan.normal_metrics.energy_kwh * 2.0);
    // Accounting: the parser saw exactly the faulted stream, the monitor
    // consumed all of it, and both learning days were offered.
    EXPECT_EQ(outcome.health.parse.events_seen, outcome.faulted_events);
    EXPECT_EQ(outcome.monitor_events, outcome.faulted_events);
    EXPECT_EQ(outcome.health.learn.episodes_offered, 2u);
    EXPECT_GT(outcome.health.learn.episodes_used, 0u);
    EXPECT_GT(outcome.ground_truth.total(), 0u);
  }

  static sim::Testbed* testbed_;
  static fsm::StateVector* initial_;
  static std::vector<events::Event>* events_;
  static std::vector<sim::LabeledSample>* training_;
};

sim::Testbed* ChaosFixture::testbed_ = nullptr;
fsm::StateVector* ChaosFixture::initial_ = nullptr;
std::vector<events::Event>* ChaosFixture::events_ = nullptr;
std::vector<sim::LabeledSample>* ChaosFixture::training_ = nullptr;

TEST_F(ChaosFixture, ZeroFaultRateReproducesBaselineExactly) {
  const ChaosOutcome baseline = RunPipeline({});

  faults::FaultSchedule zero;
  zero.seed = 1234;
  for (const auto kind :
       {faults::FaultKind::kDrop, faults::FaultKind::kDuplicate,
        faults::FaultKind::kDelay, faults::FaultKind::kReorder,
        faults::FaultKind::kCorruptField, faults::FaultKind::kDeviceOffline,
        faults::FaultKind::kDeviceFlap, faults::FaultKind::kStuckSensor}) {
    faults::FaultSpec spec;
    spec.kind = kind;
    spec.rate = 0.0;
    zero.specs.push_back(spec);
  }
  const ChaosOutcome reproduced = RunPipeline(zero);

  // A schedule whose every rate is zero is a no-op end to end: the same
  // stream, the same learnt policies, the same trained plan, bit for bit.
  EXPECT_EQ(reproduced.faulted_events, events_->size());
  EXPECT_EQ(reproduced.ground_truth.total(), 0u);
  EXPECT_EQ(reproduced.plan.train.episode_rewards,
            baseline.plan.train.episode_rewards);
  EXPECT_EQ(reproduced.plan.train.greedy_reward,
            baseline.plan.train.greedy_reward);
  EXPECT_EQ(reproduced.plan.optimized_metrics.energy_kwh,
            baseline.plan.optimized_metrics.energy_kwh);
  EXPECT_EQ(reproduced.plan.optimized_metrics.cost_usd,
            baseline.plan.optimized_metrics.cost_usd);
  EXPECT_EQ(reproduced.plan.violations, 0u);
  EXPECT_EQ(baseline.plan.violations, 0u);
  EXPECT_EQ(reproduced.health.parse.events_dropped(),
            baseline.health.parse.events_dropped());
}

TEST_F(ChaosFixture, LossyTransportSchedule) {
  faults::FaultSchedule schedule;
  schedule.seed = 7;
  schedule.specs.push_back(Spec(faults::FaultKind::kDrop, 0.10));
  schedule.specs.push_back(
      Spec(faults::FaultKind::kDuplicate, 0.10));
  schedule.specs.push_back(Spec(faults::FaultKind::kDelay, 0.15, 7));
  schedule.specs.push_back(
      Spec(faults::FaultKind::kReorder, 0.05));
  ExpectDegradedButSafe(RunPipeline(schedule));
}

TEST_F(ChaosFixture, CorruptedSensorsSchedule) {
  faults::FaultSchedule schedule;
  schedule.seed = 8;
  schedule.specs.push_back(
      Spec(faults::FaultKind::kCorruptField, 0.05));
  faults::FaultSpec stuck;
  stuck.kind = faults::FaultKind::kStuckSensor;
  stuck.rate = 0.5;
  stuck.device_label = "temp_sensor";
  stuck.window_end = util::SimTime::FromDayAndMinute(1, 0);
  schedule.specs.push_back(stuck);
  schedule.specs.push_back(
      Spec(faults::FaultKind::kDeviceFlap, 0.2));
  ExpectDegradedButSafe(RunPipeline(schedule));
}

TEST_F(ChaosFixture, DeviceOutageSchedule) {
  faults::FaultSchedule schedule;
  schedule.seed = 9;
  faults::FaultSpec outage;
  outage.kind = faults::FaultKind::kDeviceOffline;
  outage.rate = 1.0;
  outage.device_label = "light";
  outage.window_start = util::SimTime::FromDayAndMinute(0, 12 * 60);
  outage.window_end = util::SimTime::FromDayAndMinute(1, 0);
  schedule.specs.push_back(outage);
  schedule.specs.push_back(Spec(faults::FaultKind::kDrop, 0.05));
  ExpectDegradedButSafe(RunPipeline(schedule));
}

TEST_F(ChaosFixture, KitchenSinkSchedule) {
  faults::FaultSchedule schedule;
  schedule.seed = 10;
  schedule.specs.push_back(Spec(faults::FaultKind::kDrop, 0.08));
  schedule.specs.push_back(
      Spec(faults::FaultKind::kDuplicate, 0.08));
  schedule.specs.push_back(Spec(faults::FaultKind::kDelay, 0.10, 11));
  schedule.specs.push_back(
      Spec(faults::FaultKind::kReorder, 0.05));
  schedule.specs.push_back(
      Spec(faults::FaultKind::kCorruptField, 0.04));
  schedule.specs.push_back(
      Spec(faults::FaultKind::kDeviceFlap, 0.15));
  faults::FaultSpec stuck;
  stuck.kind = faults::FaultKind::kStuckSensor;
  stuck.rate = 0.3;
  stuck.device_label = "door_sensor";
  schedule.specs.push_back(stuck);
  const ChaosOutcome outcome = RunPipeline(schedule);
  ExpectDegradedButSafe(outcome);
  EXPECT_TRUE(outcome.health.degraded());
  EXPECT_GT(outcome.health.parse.events_dropped(), 0u);
}

TEST_F(ChaosFixture, ObsCountersMirrorInjectedGroundTruth) {
  faults::FaultSchedule schedule;
  schedule.seed = 11;
  schedule.specs.push_back(Spec(faults::FaultKind::kDrop, 0.10));
  schedule.specs.push_back(Spec(faults::FaultKind::kDuplicate, 0.08));
  schedule.specs.push_back(Spec(faults::FaultKind::kDelay, 0.12, 9));
  schedule.specs.push_back(Spec(faults::FaultKind::kReorder, 0.05));
  schedule.specs.push_back(Spec(faults::FaultKind::kCorruptField, 0.05));
  schedule.specs.push_back(Spec(faults::FaultKind::kDeviceFlap, 0.10));

  obs::Registry registry;
  faults::FaultInjector injector(schedule);
  injector.SetMetrics(&registry);
  injector.Apply(*events_);

  const auto expect_mirrored = [&registry, &injector] {
    const obs::MetricsSnapshot snapshot = registry.TakeSnapshot();
    const faults::FaultCounters& truth = injector.counters();
    EXPECT_EQ(snapshot.CounterValue("faults.injector.dropped"),
              truth.dropped);
    EXPECT_EQ(snapshot.CounterValue("faults.injector.duplicated"),
              truth.duplicated);
    EXPECT_EQ(snapshot.CounterValue("faults.injector.delayed"),
              truth.delayed);
    EXPECT_EQ(snapshot.CounterValue("faults.injector.reordered"),
              truth.reordered);
    EXPECT_EQ(snapshot.CounterValue("faults.injector.corrupted"),
              truth.corrupted);
    EXPECT_EQ(snapshot.CounterValue("faults.injector.offline_drops"),
              truth.offline_drops);
    EXPECT_EQ(snapshot.CounterValue("faults.injector.flap_reports"),
              truth.flap_reports);
    EXPECT_EQ(snapshot.CounterValue("faults.injector.stuck_reports"),
              truth.stuck_reports);
  };
  expect_mirrored();
  EXPECT_GT(injector.counters().total(), 0u);

  // A second Apply accumulates in both ledgers identically (Apply re-seeds
  // per call, so the second pass injects the same faults again).
  const faults::FaultCounters after_first = injector.counters();
  injector.Apply(*events_);
  EXPECT_EQ(injector.counters().total(), 2 * after_first.total());
  expect_mirrored();

  // ResetCounters clears the injector's ledger but obs counters are
  // monotonic history — subsequent deltas keep accumulating on top.
  injector.ResetCounters();
  const obs::MetricsSnapshot before = registry.TakeSnapshot();
  injector.Apply(*events_);
  const obs::MetricsSnapshot after = registry.TakeSnapshot();
  EXPECT_EQ(after.CounterValue("faults.injector.dropped"),
            before.CounterValue("faults.injector.dropped") +
                injector.counters().dropped);
}

TEST_F(ChaosFixture, InstrumentedInjectionIsBitIdentical) {
  // Wiring metrics must not consume RNG draws or otherwise perturb the
  // faulted stream.
  faults::FaultSchedule schedule;
  schedule.seed = 12;
  schedule.specs.push_back(Spec(faults::FaultKind::kDrop, 0.15));
  schedule.specs.push_back(Spec(faults::FaultKind::kCorruptField, 0.05));

  faults::FaultInjector plain(schedule);
  faults::FaultInjector wired(schedule);
  obs::Registry registry;
  wired.SetMetrics(&registry);

  const auto expected = plain.Apply(*events_);
  const auto actual = wired.Apply(*events_);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].date, expected[i].date) << "event " << i;
    EXPECT_EQ(actual[i].device_label, expected[i].device_label)
        << "event " << i;
    EXPECT_EQ(actual[i].attribute_value, expected[i].attribute_value)
        << "event " << i;
    EXPECT_EQ(actual[i].command, expected[i].command) << "event " << i;
  }
  EXPECT_EQ(plain.counters(), wired.counters());
}

}  // namespace
}  // namespace jarvis::core
