#include "core/online_monitor.h"

#include <gtest/gtest.h>

#include "sim/testbed.h"
#include "util/json.h"

namespace jarvis::core {
namespace {

class MonitorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::TestbedConfig config;
    config.benign_anomaly_samples = 2000;
    testbed_ = new sim::Testbed(config);
    learner_ = new spl::SafetyPolicyLearner(testbed_->home_a(),
                                            spl::SplConfig{});
    learner_->Learn(testbed_->HomeALearningEpisodes(),
                    testbed_->BuildTrainingSet());
  }
  static void TearDownTestSuite() {
    delete learner_;
    delete testbed_;
    learner_ = nullptr;
    testbed_ = nullptr;
  }

  static events::Event CommandEvent(int minute, const std::string& device,
                                    const std::string& value,
                                    const std::string& command) {
    events::Event event;
    event.date = util::SimTime(minute);
    event.device_label = device;
    event.attribute = "state";
    event.attribute_value = value;
    event.command = command;
    return event;
  }

  static events::Event SensorEvent(int minute, const std::string& device,
                                   const std::string& value) {
    return CommandEvent(minute, device, value, "");
  }

  static sim::Testbed* testbed_;
  static spl::SafetyPolicyLearner* learner_;
};

sim::Testbed* MonitorFixture::testbed_ = nullptr;
spl::SafetyPolicyLearner* MonitorFixture::learner_ = nullptr;

TEST_F(MonitorFixture, RequiresLearnedLearner) {
  spl::SafetyPolicyLearner fresh(testbed_->home_a(), spl::SplConfig{});
  EXPECT_THROW(OnlineMonitor(testbed_->home_a(), fresh,
                             fsm::StateVector(11, 0)),
               std::invalid_argument);
}

TEST_F(MonitorFixture, FlagsNightUnlockAsItArrives) {
  OnlineMonitor monitor(testbed_->home_a(), *learner_,
                        fsm::StateVector(11, 0));
  const auto verdict =
      monitor.Consume(CommandEvent(2 * 60, "lock", "unlocked", "unlock"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, spl::Verdict::kViolation);
  EXPECT_EQ(monitor.violations(), 1u);
  // The tracked state followed the transition.
  EXPECT_EQ(monitor.state()[0],
            *testbed_->home_a().device(0).FindState("unlocked"));
}

TEST_F(MonitorFixture, SensorEventsUpdateContextForClassification) {
  OnlineMonitor monitor(testbed_->home_a(), *learner_,
                        fsm::StateVector(11, 0));
  // An unlock right after the door sensor verifies a user at an arrival
  // hour is the whitelisted App-1 behavior.
  EXPECT_FALSE(monitor.Consume(
      SensorEvent(17 * 60 + 40, "door_sensor", "auth_user")).has_value());
  const auto verdict = monitor.Consume(
      CommandEvent(17 * 60 + 40, "lock", "unlocked", "unlock"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, spl::Verdict::kSafe);
  EXPECT_EQ(monitor.violations(), 0u);
}

TEST_F(MonitorFixture, UnknownVocabularyCountedNotFatal) {
  OnlineMonitor monitor(testbed_->home_a(), *learner_,
                        fsm::StateVector(11, 0));
  EXPECT_FALSE(monitor.Consume(CommandEvent(60, "toaster", "on", "pop"))
                   .has_value());
  EXPECT_FALSE(monitor.Consume(SensorEvent(61, "temp_sensor", "plasma"))
                   .has_value());
  EXPECT_FALSE(monitor.Consume(CommandEvent(62, "lock", "unlocked", "warp"))
                   .has_value());
  EXPECT_EQ(monitor.unknown_events(), 3u);
  EXPECT_EQ(monitor.events_consumed(), 3u);
  EXPECT_EQ(monitor.commands_classified(), 0u);
}

TEST_F(MonitorFixture, FailSafeDeniesCommandOnUndecodableState) {
  OnlineMonitor monitor(testbed_->home_a(), *learner_,
                        fsm::StateVector(11, 0));

  // A corrupted sensor report makes the device's tracked state untrusted.
  EXPECT_FALSE(
      monitor.Consume(SensorEvent(60, "temp_sensor", "??corrupt??"))
          .has_value());
  EXPECT_EQ(monitor.unknown_events(), 1u);

  // Deny-unsafe-by-default: the follow-up command cannot be classified
  // against a trusted context, so it is denied — and counted as a trust
  // failure, not a learner verdict.
  const auto verdict =
      monitor.Consume(CommandEvent(61, "temp_sensor", "off", "power_off"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, spl::Verdict::kViolation);
  EXPECT_EQ(monitor.unknown_state_denials(), 1u);
  EXPECT_EQ(monitor.failsafe_denials(), 1u);
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(monitor.commands_classified(), 0u);

  // The next good report restores trust and normal classification.
  EXPECT_FALSE(
      monitor.Consume(SensorEvent(62, "temp_sensor", "optimal")).has_value());
  EXPECT_TRUE(monitor.Consume(CommandEvent(63, "temp_sensor", "off",
                                           "power_off"))
                  .has_value());
  EXPECT_EQ(monitor.commands_classified(), 1u);
  EXPECT_EQ(monitor.failsafe_denials(), 1u);
}

TEST_F(MonitorFixture, MarkStateUnknownExternallyTriggersDenial) {
  OnlineMonitor monitor(testbed_->home_a(), *learner_,
                        fsm::StateVector(11, 0));
  monitor.MarkStateUnknown(0);  // e.g. health system saw the lock offline
  const auto verdict = monitor.Consume(
      CommandEvent(17 * 60 + 40, "lock", "unlocked", "unlock"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, spl::Verdict::kViolation);
  EXPECT_EQ(monitor.unknown_state_denials(), 1u);

  // A decodable report brings the lock back.
  monitor.Consume(SensorEvent(17 * 60 + 41, "lock", "unlocked"));
  monitor.Consume(CommandEvent(17 * 60 + 42, "lock", "locked", "lock"));
  EXPECT_EQ(monitor.commands_classified(), 1u);
}

TEST_F(MonitorFixture, StalenessClockDeniesOldContext) {
  MonitorConfig config;
  config.staleness_limit_minutes = 30;
  OnlineMonitor monitor(testbed_->home_a(), *learner_,
                        fsm::StateVector(11, 0), config);

  // temp_sensor reports at minute 0; by minute 100 that context is stale.
  monitor.Consume(SensorEvent(0, "temp_sensor", "optimal"));
  const auto verdict =
      monitor.Consume(CommandEvent(100, "temp_sensor", "off", "power_off"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, spl::Verdict::kViolation);
  EXPECT_EQ(monitor.stale_denials(), 1u);

  // The clock only starts at a device's first report: the lock never
  // reported, so its constructor-supplied state is still trusted.
  monitor.Consume(CommandEvent(100, "lock", "unlocked", "unlock"));
  EXPECT_EQ(monitor.commands_classified(), 1u);
  EXPECT_EQ(monitor.stale_denials(), 1u);

  // A fresh report resets the clock.
  monitor.Consume(SensorEvent(101, "temp_sensor", "optimal"));
  monitor.Consume(CommandEvent(110, "temp_sensor", "off", "power_off"));
  EXPECT_EQ(monitor.commands_classified(), 2u);
  EXPECT_EQ(monitor.stale_denials(), 1u);
}

TEST_F(MonitorFixture, LoadJsonRefusesStateThatIsNotAnInt) {
  // A checkpoint's tracked state must be an int as written: 4294967297
  // used to narrow to state 1 (and 0.5 round to it) and pass ValidateState.
  OnlineMonitor monitor(testbed_->home_a(), *learner_,
                        fsm::StateVector(11, 0));
  monitor.Consume(CommandEvent(2 * 60, "lock", "unlocked", "unlock"));
  const std::string before = monitor.ToJson().Dump();
  for (const double hostile : {4294967297.0, -4294967296.0, 1e300, 0.5}) {
    SCOPED_TRACE(hostile);
    util::JsonObject doc = monitor.ToJson().AsObject();
    util::JsonArray state = doc.at("state").AsArray();
    state[0] = util::JsonValue(hostile);
    doc["state"] = util::JsonValue(std::move(state));
    EXPECT_THROW(monitor.LoadJson(util::JsonValue(std::move(doc))),
                 util::JsonError);
    EXPECT_EQ(monitor.ToJson().Dump(), before);  // untouched
  }
  monitor.LoadJson(util::JsonValue::Parse(before));
  EXPECT_EQ(monitor.ToJson().Dump(), before);
}

TEST_F(MonitorFixture, StreamingMatchesBatchAuditOnNaturalDay) {
  // The streaming monitor over a day's event stream must agree with the
  // batch audit of the same day's episode on the violation count.
  sim::ResidentSimulator resident(testbed_->home_a(), sim::ThermalConfig{},
                                  404);
  const auto generator = testbed_->home_a_generator();
  const auto trace = resident.SimulateDay(generator.Generate(90),
                                          resident.OvernightState(), 21.0);

  OnlineMonitor monitor(testbed_->home_a(), *learner_,
                        trace.episode.initial_state());
  for (const auto& event : trace.events) monitor.Consume(event);

  const auto audit = learner_->AuditEpisode(trace.episode);
  EXPECT_EQ(monitor.violations(), audit.violations);
  EXPECT_EQ(monitor.commands_classified(), audit.transitions_checked);
}

}  // namespace
}  // namespace jarvis::core
