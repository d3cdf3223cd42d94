#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "events/event.h"
#include "events/logger_app.h"
#include "events/parser.h"
#include "fsm/device_library.h"
#include "sim/resident.h"
#include "sim/scenario.h"
#include "util/json.h"
#include "util/rng.h"

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

TEST(LoggerApp, OutOfRangeMinutesDropped) {
  // A minute must be a whole number a double holds exactly; 1e300 used to
  // round into an unspecified SimTime.
  const std::string log =
      MakeEvent("a", "b", 5).ToLogLine() + "\n" +
      R"({"event_minute":1e300,"device_label":"a"})" + "\n" +
      R"({"event_minute":1.5,"device_label":"a"})" + "\n" +
      R"({"event_minute":-9007199254740994,"device_label":"a"})" + "\n" +
      R"({"event_minute":-9007199254740992,"device_label":"a"})";
  std::size_t dropped = 0;
  const auto events = LoggerApp::ParseLog(log, &dropped);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(dropped, 3u);
  EXPECT_EQ(events[0].date.minutes(), 5);
  EXPECT_EQ(events[1].date.minutes(), -9007199254740992);
}

// The bytes the log format has always had: keys sorted, compact, and
// strings escaped as util::JsonEscape does.
TEST(Event, ToLogLineMatchesGoldenBytes) {
  Event event;
  event.date = util::SimTime::FromHms(2, 13, 5);
  event.data = "say \"hi\"\\now\n\t\x01";
  event.user_info = "user0";
  event.app_info = "lights-on-arrival";
  event.group_info = "main";
  event.location_info = "home";
  event.device_label = "light";
  event.capability = "lighting";
  event.attribute = "state";
  event.attribute_value = "on";
  event.command = "power_on";
  EXPECT_EQ(
      event.ToLogLine(),
      R"({"app_info":"lights-on-arrival","attribute_name":"state",)"
      R"("attribute_value":"on","capability_command":"power_on",)"
      R"("capability_name":"lighting","device_label":"light",)"
      R"("event_data":"say \"hi\"\\now\n\t\u0001",)"
      R"("event_date":"2020-01-03T13:05:00","event_minute":3665,)"
      R"("group_info":"main","location_info":"home","user_info":"user0"})");
  Event empty;
  empty.date = util::SimTime(-1);
  EXPECT_EQ(
      empty.ToLogLine(),
      R"({"app_info":"","attribute_name":"","attribute_value":"",)"
      R"("capability_command":"","capability_name":"","device_label":"",)"
      R"("event_data":"","event_date":"2020-01-01T23:59:00",)"
      R"("event_minute":-1,"group_info":"","location_info":"",)"
      R"("user_info":""})");
}

// The DOM decode a log line used to get, written out: parse, then take the
// fields by name (std::map keeps the first of duplicate keys). The minute
// must be a whole number within 2^53.
std::optional<Event> OracleDecode(const std::string& line) {
  util::JsonValue doc;
  try {
    doc = util::JsonValue::Parse(line);
  } catch (const util::JsonError&) {
    return std::nullopt;
  }
  if (!doc.is_object()) return std::nullopt;
  const auto minute = doc.AsObject().find("event_minute");
  if (minute == doc.AsObject().end() || !minute->second.is_number()) {
    return std::nullopt;
  }
  const double m = minute->second.AsNumber();
  if (std::floor(m) != m || std::fabs(m) > 9007199254740992.0) {
    return std::nullopt;
  }
  const auto text = [&doc](const char* key) {
    const auto it = doc.AsObject().find(key);
    return it != doc.AsObject().end() && it->second.is_string()
               ? it->second.AsString()
               : std::string();
  };
  Event event;
  event.date = util::SimTime(static_cast<std::int64_t>(m));
  event.data = text("event_data");
  event.user_info = text("user_info");
  event.app_info = text("app_info");
  event.group_info = text("group_info");
  event.location_info = text("location_info");
  event.device_label = text("device_label");
  event.capability = text("capability_name");
  event.attribute = text("attribute_name");
  event.attribute_value = text("attribute_value");
  event.command = text("capability_command");
  return event;
}

std::optional<Event> Decode(const std::string& line) {
  try {
    return Event::FromLogLine(line);
  } catch (const util::JsonError&) {
    return std::nullopt;
  }
}

// The members of a real log line, each rendered as `"key":value`.
std::vector<std::string> Members(const std::string& line) {
  std::vector<std::string> members;
  const util::JsonValue doc = util::JsonValue::Parse(line);
  for (const auto& [key, value] : doc.AsObject()) {
    members.push_back(util::JsonEscape(key) + ":" + value.Dump());
  }
  return members;
}

std::string JoinObject(const std::vector<std::string>& members) {
  std::string out = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += ',';
    out += members[i];
  }
  return out + "}";
}

TEST(Event, FromLogLineAgreesWithTheDomDecode) {
  std::vector<std::string> corpus = {
      // Duplicate keys: the first wins, whatever its type.
      R"({"event_minute":5,"device_label":"a","device_label":"b"})",
      R"({"event_minute":5,"event_minute":7})",
      R"({"device_label":1,"device_label":"b","event_minute":0})",
      R"({"event_minute":"5","event_minute":5})",
      // Unknown keys holding nested objects and arrays.
      R"({"x":{"a":[1,{"b":null}],"c":"d"},"event_minute":3,)"
      R"("y":[true,false,[],{}],"event_date":{"z":"w"}})",
      // Escapes and whitespace.
      R"({"event_minute":1,"device_label":"l\u0069ght",)"
      R"("event_data":"a\"b\\c\/d\u00e9\u20ac\b\f\n\r\t"})",
      " {\t\"event_minute\" :\n2 ,\r\"user_info\" : \"u\" } \r\n",
      R"({"event_minute":1,"user_info":"\x"})",
      R"({"event_minute":1,"user_info":"\u12G4"})",
      R"({"event_minute":1,"user_info":"open)",
      // A non-string field reads as "".
      R"({"event_minute":1,"user_info":42,"app_info":null,)"
      R"("group_info":true,"location_info":["x"],"capability_name":{}})",
      // event_minute missing, not a number, or out of range.
      R"({"device_label":"x"})",
      R"({})",
      R"({"event_minute":null})",
      R"({"event_minute":true})",
      R"({"event_minute":[1]})",
      R"({"event_minute":{"m":1}})",
      R"({"event_minute":"1"})",
      R"({"event_minute":1.5})",
      R"({"event_minute":1e3})",
      R"({"event_minute":-0})",
      R"({"event_minute":1e300})",
      R"({"event_minute":1e16})",
      R"({"event_minute":9007199254740992})",
      R"({"event_minute":-9007199254740993})",
      // Trailing bytes, and documents that are not one object.
      R"({"event_minute":1}x)",
      R"({"event_minute":1} {})",
      R"({"event_minute":1,})",
      R"({"event_minute":1 "a":"b"})",
      R"([{"event_minute":1}])",
      "5",
      "\"text\"",
      "null",
      "",
      "{",
  };
  // Text outside the JSON number grammar is refused, never read up to the
  // first byte that does not fit.
  for (const char* number : {"+3", "1-2", "-", "01", "1.2.3", ".5", "1e999"}) {
    const std::string line = std::string(R"({"event_minute":)") + number + "}";
    EXPECT_EQ(Decode(line), std::nullopt) << line;
    corpus.push_back(line);
  }

  // Seeded mutations of real log lines: byte flips, truncations, and key
  // reorders (some with a member duplicated under a new value).
  Event escaped;
  escaped.date = util::SimTime::FromHms(3, 7, 59);
  escaped.data = "quote \" slash \\ tab \t ctrl \x02 ,:{}[]";
  escaped.device_label = "lock";
  escaped.command = "unlock";
  std::vector<std::string> seeds = {MakeEvent("light", "lighting", 61)
                                        .ToLogLine(),
                                    escaped.ToLogLine()};
  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  sim::ResidentSimulator resident(home, sim::ThermalConfig{}, 4,
                                  sim::BehaviorConfig{0.0, 1});
  sim::ScenarioGenerator generator({}, {}, {}, 4);
  const auto trace = resident.SimulateDay(generator.Generate(0),
                                          resident.OvernightState(), 21.0);
  for (std::size_t i = 0; i < trace.events.size() && i < 8; ++i) {
    seeds.push_back(trace.events[i].ToLogLine());
  }
  const std::string structural = "{}[]\":,\\ 0123456789.eE+-tfnu\t";
  util::Rng rng(19);
  for (const std::string& seed : seeds) {
    corpus.push_back(seed);
    for (int i = 0; i < 120; ++i) {
      std::string flipped = seed;
      const std::size_t at = rng.NextIndex(flipped.size());
      flipped[at] = rng.NextBool(0.5)
                        ? structural[rng.NextIndex(structural.size())]
                        : static_cast<char>(rng.NextIndex(256));
      corpus.push_back(std::move(flipped));
    }
    for (int i = 0; i < 40; ++i) {
      corpus.push_back(seed.substr(0, rng.NextIndex(seed.size())));
    }
    const std::vector<std::string> members = Members(seed);
    for (int i = 0; i < 20; ++i) {
      std::vector<std::string> shuffled = members;
      for (std::size_t j = shuffled.size(); j > 1; --j) {
        std::swap(shuffled[j - 1], shuffled[rng.NextIndex(j)]);
      }
      if (rng.NextBool(0.5)) {
        const std::string& twin = members[rng.NextIndex(members.size())];
        shuffled.insert(shuffled.begin() + static_cast<std::ptrdiff_t>(
                                               rng.NextIndex(shuffled.size())),
                        twin.substr(0, twin.find(':') + 1) + "\"dup\"");
      }
      corpus.push_back(JoinObject(shuffled));
    }
  }

  std::size_t accepted = 0;
  for (const std::string& line : corpus) {
    const std::optional<Event> expected = OracleDecode(line);
    EXPECT_EQ(Decode(line), expected) << line;
    if (expected) ++accepted;
  }
  // Both outcomes are well represented.
  EXPECT_GT(accepted, corpus.size() / 4);
  EXPECT_LT(accepted, corpus.size() * 3 / 4);
}

class ParserFixture : public ::testing::Test {
 protected:
  ParserFixture() : fsm_(fsm::ExampleHomeDevices()) {}

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
