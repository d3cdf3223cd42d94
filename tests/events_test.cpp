#include <gtest/gtest.h>

#include "events/event.h"
#include "events/logger_app.h"
#include "events/parser.h"
#include "fsm/device_library.h"
#include "sim/resident.h"
#include "sim/scenario.h"

namespace jarvis::events {
namespace {

Event MakeEvent(const std::string& device, const std::string& capability,
                int minute = 0) {
  Event event;
  event.date = util::SimTime(minute);
  event.device_label = device;
  event.capability = capability;
  event.attribute = "state";
  event.attribute_value = "on";
  event.data = "state-change";
  return event;
}

TEST(Event, JsonRoundTripPreservesAllElevenFields) {
  Event event;
  event.date = util::SimTime::FromHms(2, 13, 5);
  event.data = "state-change";
  event.user_info = "user0";
  event.app_info = "lights-on-arrival";
  event.group_info = "main";
  event.location_info = "home";
  event.device_label = "light";
  event.capability = "lighting";
  event.attribute = "state";
  event.attribute_value = "on";
  event.command = "power_on";
  EXPECT_EQ(Event::FromLogLine(event.ToLogLine()), event);
}

TEST(Event, TimestampFieldRendered) {
  const Event event = MakeEvent("light", "lighting", 61);
  const auto doc = util::JsonValue::Parse(event.ToLogLine());
  EXPECT_EQ(doc.At("event_minute").AsInt(), 61);
  EXPECT_FALSE(doc.At("event_date").AsString().empty());
}

TEST(LoggerApp, MalformedLinesDroppedAndCounted) {
  const std::string log =
      MakeEvent("a", "b").ToLogLine() + "\nnot json at all\n\n" +
      MakeEvent("c", "d").ToLogLine() + "\n";
  std::size_t dropped = 0;
  const auto events = LoggerApp::ParseLog(log, &dropped);
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(dropped, 1u);
}

class ParserFixture : public ::testing::Test {
 protected:
  ParserFixture() : fsm_(fsm::BuildHome(fsm::ExampleHomeDevices(), 1)) {}

  Event CommandEvent(int minute, const std::string& device,
                     const std::string& new_state,
                     const std::string& command) {
    Event event = MakeEvent(device, "x", minute);
    event.attribute_value = new_state;
    event.command = command;
    return event;
  }

  Event SensorEvent(int minute, const std::string& device,
                    const std::string& new_state) {
    Event event = MakeEvent(device, "x", minute);
    event.attribute_value = new_state;
    event.command = "";
    return event;
  }

  fsm::EnvironmentFsm fsm_;
  fsm::StateVector initial_ = {0, 0, 0, 2, 2};
};

TEST_F(ParserFixture, CommandsBecomeActions) {
  LogParser parser(fsm_, {10, 1});
  const std::vector<Event> events = {
      CommandEvent(3, "light", "on", "power_on"),
  };
  const auto episodes =
      parser.Parse(events, initial_, util::SimTime(0), /*keep_partial=*/false);
  ASSERT_EQ(episodes.size(), 1u);
  const auto& steps = episodes[0].steps();
  ASSERT_EQ(steps.size(), 10u);
  EXPECT_EQ(steps[3].action[2], *fsm_.device(2).FindAction("power_on"));
  // State reflects the change from minute 4 onward.
  EXPECT_EQ(steps[4].state[2], *fsm_.device(2).FindState("on"));
  EXPECT_EQ(parser.stats().events_consumed, 1u);
}

TEST_F(ParserFixture, SensorEventsOverrideStateWithoutActions) {
  LogParser parser(fsm_, {10, 1});
  const std::vector<Event> events = {
      SensorEvent(2, "temp_sensor", "below_optimal"),
  };
  const auto episodes =
      parser.Parse(events, initial_, util::SimTime(0), false);
  ASSERT_EQ(episodes.size(), 1u);
  const auto& steps = episodes[0].steps();
  EXPECT_EQ(steps[2].action[4], fsm::kNoAction);
  // A command-less event describes the state at its own timestamp.
  EXPECT_EQ(steps[1].state[4], *fsm_.device(4).FindState("optimal"));
  EXPECT_EQ(steps[2].state[4],
            *fsm_.device(4).FindState("below_optimal"));
  EXPECT_EQ(steps[3].state[4],
            *fsm_.device(4).FindState("below_optimal"));
}

TEST_F(ParserFixture, FirstCommandPerDevicePerIntervalWins) {
  LogParser parser(fsm_, {10, 5});  // 5-minute intervals
  const std::vector<Event> events = {
      CommandEvent(1, "light", "on", "power_on"),
      CommandEvent(2, "light", "off", "power_off"),  // same interval: dropped
  };
  const auto episodes = parser.Parse(events, initial_, util::SimTime(0), false);
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].steps()[0].action[2],
            *fsm_.device(2).FindAction("power_on"));
  EXPECT_EQ(parser.stats().conflicting_commands, 1u);
}

TEST_F(ParserFixture, UnknownVocabularyCounted) {
  LogParser parser(fsm_, {5, 1});
  const std::vector<Event> events = {
      CommandEvent(0, "toaster", "on", "power_on"),   // unknown device
      CommandEvent(1, "light", "on", "explode"),      // unknown command
      SensorEvent(2, "temp_sensor", "plasma"),        // unknown state
  };
  parser.Parse(events, initial_, util::SimTime(0), false);
  EXPECT_EQ(parser.stats().unknown_device, 1u);
  EXPECT_EQ(parser.stats().unknown_command, 1u);
  EXPECT_EQ(parser.stats().unknown_state, 1u);
}

TEST_F(ParserFixture, MultipleEpisodesCutAtPeriodBoundaries) {
  LogParser parser(fsm_, {10, 1});
  const std::vector<Event> events = {
      CommandEvent(3, "light", "on", "power_on"),
      CommandEvent(15, "light", "off", "power_off"),
  };
  const auto episodes = parser.Parse(events, initial_, util::SimTime(0), false);
  ASSERT_EQ(episodes.size(), 2u);
  // The light state carries over the episode boundary.
  EXPECT_EQ(episodes[1].initial_state()[2], *fsm_.device(2).FindState("on"));
  EXPECT_EQ(episodes[1].steps()[5].action[2],
            *fsm_.device(2).FindAction("power_off"));
}

TEST_F(ParserFixture, StragglersSkippedAndCounted) {
  LogParser parser(fsm_, {10, 1});
  const std::vector<Event> events = {
      CommandEvent(5, "light", "on", "power_on"),
      SensorEvent(2, "temp_sensor", "below_optimal"),  // late arrival
  };
  const auto episodes = parser.Parse(events, initial_, util::SimTime(0), false);
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(parser.stats().stragglers_skipped, 1u);
  EXPECT_EQ(parser.stats().out_of_order, 1u);
  EXPECT_EQ(parser.stats().events_consumed, 1u);
  // The straggler's stale reading never overrode the tracked state.
  EXPECT_EQ(episodes[0].steps()[3].state[4],
            *fsm_.device(4).FindState("optimal"));
  EXPECT_EQ(parser.report().events_dropped(), 1u);
  EXPECT_DOUBLE_EQ(parser.report().DropFraction(), 0.5);
}

TEST_F(ParserFixture, DropBudgetFlagsDegradedStream) {
  const std::vector<Event> events = {
      CommandEvent(1, "light", "on", "power_on"),
      CommandEvent(2, "toaster", "on", "power_on"),  // unknown device
  };
  LogParser strict(fsm_, {10, 1}, /*drop_budget=*/0.25);
  strict.Parse(events, initial_, util::SimTime(0), false);
  EXPECT_FALSE(strict.report().WithinBudget());

  LogParser lax(fsm_, {10, 1}, /*drop_budget=*/0.5);
  lax.Parse(events, initial_, util::SimTime(0), false);
  EXPECT_TRUE(lax.report().WithinBudget());
}

TEST_F(ParserFixture, EmptyLogYieldsNothing) {
  LogParser parser(fsm_, {10, 1});
  EXPECT_TRUE(parser.Parse({}, initial_, util::SimTime(0), false).empty());
}

TEST_F(ParserFixture, RoundTripWithResidentSimulatorEvents) {
  // Full-pipeline property: parsing the resident simulator's event stream
  // reproduces the same trigger-action behavior as its recorded episode.
  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  sim::ResidentSimulator resident(home, sim::ThermalConfig{}, 9,
                                  sim::BehaviorConfig{0.0, 1});
  sim::ScenarioGenerator generator({}, {}, {}, 12);
  const auto trace = resident.SimulateDay(generator.Generate(1),
                                          resident.OvernightState(), 21.0);

  LogParser parser(home, {util::kMinutesPerDay, 1});
  const auto episodes = parser.Parse(trace.events,
                                     trace.episode.initial_state(),
                                     util::SimTime::FromDayAndMinute(1, 0),
                                     /*keep_partial=*/true);
  ASSERT_GE(episodes.size(), 1u);
  const auto original = fsm::ExtractTriggerActions({trace.episode});
  const auto parsed = fsm::ExtractTriggerActions(episodes);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].action, original[i].action) << "index " << i;
    EXPECT_EQ(parsed[i].minute_of_day, original[i].minute_of_day);
  }
  EXPECT_EQ(parser.stats().unknown_device, 0u);
  EXPECT_EQ(parser.stats().unknown_command, 0u);
}

}  // namespace
}  // namespace jarvis::events
