#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "events/event.h"
#include "faults/injector.h"
#include "faults/schedule.h"

namespace jarvis::faults {
namespace {

events::Event Sensor(int minute, const std::string& device,
                     const std::string& value) {
  events::Event event;
  event.date = util::SimTime(minute);
  event.device_label = device;
  event.capability = "sensor";
  event.attribute = "state";
  event.attribute_value = value;
  event.data = "state-change";
  return event;
}

events::Event Command(int minute, const std::string& device,
                      const std::string& command) {
  events::Event event = Sensor(minute, device, "on");
  event.command = command;
  return event;
}

// A small mixed stream: alternating sensor reports and commands across two
// devices, one event per minute.
std::vector<events::Event> MixedStream(int count) {
  std::vector<events::Event> events;
  for (int i = 0; i < count; ++i) {
    const std::string device = (i % 2 == 0) ? "light" : "temp_sensor";
    if (i % 3 == 0) {
      events.push_back(Command(i, device, "power_on"));
    } else {
      events.push_back(Sensor(i, device, (i % 2 == 0) ? "on" : "optimal"));
    }
  }
  return events;
}

FaultSpec Spec(FaultKind kind, double rate, int delay_minutes = 5) {
  FaultSpec spec;
  spec.kind = kind;
  spec.rate = rate;
  spec.delay_minutes = delay_minutes;
  return spec;
}

TEST(FaultKindName, CoversEveryKind) {
  EXPECT_EQ(FaultKindName(FaultKind::kDrop), "drop");
  EXPECT_EQ(FaultKindName(FaultKind::kStuckSensor), "stuck-sensor");
}

TEST(FaultSpec, WindowAndDeviceScope) {
  FaultSpec spec;
  spec.window_start = util::SimTime(10);
  spec.window_end = util::SimTime(20);
  spec.device_label = "light";
  EXPECT_FALSE(spec.AppliesAt(util::SimTime(9)));
  EXPECT_TRUE(spec.AppliesAt(util::SimTime(10)));
  EXPECT_TRUE(spec.AppliesAt(util::SimTime(19)));
  EXPECT_FALSE(spec.AppliesAt(util::SimTime(20)));
  EXPECT_TRUE(spec.AppliesTo("light"));
  EXPECT_FALSE(spec.AppliesTo("lock"));
  EXPECT_TRUE(FaultSpec{}.AppliesTo("anything"));
}

TEST(FaultInjector, EmptyScheduleIsIdentity) {
  const auto input = MixedStream(50);
  FaultInjector injector({});
  EXPECT_EQ(injector.Apply(input), input);
  EXPECT_EQ(injector.counters().total(), 0u);
}

TEST(FaultInjector, ZeroRatesAreIdentity) {
  const auto input = MixedStream(50);
  FaultSchedule schedule;
  for (const auto kind :
       {FaultKind::kDrop, FaultKind::kDuplicate, FaultKind::kDelay,
        FaultKind::kReorder, FaultKind::kCorruptField,
        FaultKind::kDeviceOffline, FaultKind::kDeviceFlap,
        FaultKind::kStuckSensor}) {
    FaultSpec spec;
    spec.kind = kind;
    spec.rate = 0.0;
    schedule.specs.push_back(spec);
  }
  FaultInjector injector(schedule);
  EXPECT_EQ(injector.Apply(input), input);
  EXPECT_EQ(injector.counters().total(), 0u);
}

TEST(FaultInjector, ApplyIsDeterministicPerCall) {
  const auto input = MixedStream(200);
  FaultSchedule schedule;
  schedule.seed = 17;
  schedule.specs.push_back(Spec(FaultKind::kDrop, 0.2));
  schedule.specs.push_back(Spec(FaultKind::kDuplicate, 0.2));
  schedule.specs.push_back(Spec(FaultKind::kCorruptField, 0.1));

  FaultInjector injector(schedule);
  const auto first = injector.Apply(input);
  const FaultCounters after_first = injector.counters();
  const auto second = injector.Apply(input);

  EXPECT_EQ(first, second);
  // Counters accumulate: the second identical pass doubles them exactly.
  EXPECT_EQ(injector.counters().dropped, 2 * after_first.dropped);
  EXPECT_EQ(injector.counters().duplicated, 2 * after_first.duplicated);
  EXPECT_EQ(injector.counters().corrupted, 2 * after_first.corrupted);
  EXPECT_EQ(injector.counters().total(), 2 * after_first.total());

  // A different seed produces a different faulted stream.
  FaultSchedule reseeded = schedule;
  reseeded.seed = 18;
  FaultInjector other(reseeded);
  EXPECT_NE(other.Apply(input), first);
}

TEST(FaultInjector, HardDropLosesEverything) {
  const auto input = MixedStream(20);
  FaultSchedule schedule;
  schedule.specs.push_back(Spec(FaultKind::kDrop, 1.0));
  FaultInjector injector(schedule);
  EXPECT_TRUE(injector.Apply(input).empty());
  EXPECT_EQ(injector.counters().dropped, 20u);
}

TEST(FaultInjector, DuplicateEmitsExtraCopies) {
  const auto input = MixedStream(20);
  FaultSchedule schedule;
  schedule.specs.push_back(Spec(FaultKind::kDuplicate, 1.0));
  FaultInjector injector(schedule);
  const auto out = injector.Apply(input);
  EXPECT_EQ(out.size(), 40u);
  EXPECT_EQ(injector.counters().duplicated, 20u);
  EXPECT_EQ(out[0], out[1]);
}

TEST(FaultInjector, OfflineScopedToDevice) {
  const auto input = MixedStream(20);
  FaultSchedule schedule;
  FaultSpec spec;
  spec.kind = FaultKind::kDeviceOffline;
  spec.rate = 1.0;
  spec.device_label = "light";
  schedule.specs.push_back(spec);
  FaultInjector injector(schedule);
  const auto out = injector.Apply(input);
  EXPECT_EQ(out.size(), 10u);  // every odd-minute temp_sensor event survives
  for (const auto& event : out) {
    EXPECT_EQ(event.device_label, "temp_sensor");
  }
  EXPECT_EQ(injector.counters().offline_drops, 10u);
}

TEST(FaultInjector, DelayedEventArrivesLateAsStraggler) {
  std::vector<events::Event> input;
  for (int minute = 0; minute < 10; ++minute) {
    input.push_back(Sensor(minute, "light", minute % 2 == 0 ? "on" : "off"));
  }
  FaultSchedule schedule;
  FaultSpec spec;
  spec.kind = FaultKind::kDelay;
  spec.rate = 1.0;
  spec.window_start = util::SimTime(2);
  spec.window_end = util::SimTime(3);
  spec.delay_minutes = 5;
  schedule.specs.push_back(spec);
  FaultInjector injector(schedule);
  const auto out = injector.Apply(input);

  ASSERT_EQ(out.size(), input.size());
  EXPECT_EQ(injector.counters().delayed, 1u);
  // The minute-2 event now sits after minute 6 (due at 7, flushed when the
  // minute-7 publication arrives) but keeps its original timestamp — the
  // parser sees it as an out-of-order straggler.
  EXPECT_EQ(out[6].date, util::SimTime(2));
  EXPECT_EQ(out[5].date, util::SimTime(6));
  EXPECT_EQ(out[7].date, util::SimTime(7));
}

TEST(FaultInjector, StuckSensorFreezesAtFirstInWindowValue) {
  std::vector<events::Event> input;
  input.push_back(Sensor(0, "temp_sensor", "optimal"));
  input.push_back(Sensor(1, "temp_sensor", "below_optimal"));
  input.push_back(Sensor(2, "temp_sensor", "above_optimal"));
  FaultSchedule schedule;
  FaultSpec spec;
  spec.kind = FaultKind::kStuckSensor;
  spec.rate = 1.0;
  schedule.specs.push_back(spec);
  FaultInjector injector(schedule);
  const auto out = injector.Apply(input);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& event : out) {
    EXPECT_EQ(event.attribute_value, "optimal");
  }
  // Only the two rewritten reports count; the first was already stuck.
  EXPECT_EQ(injector.counters().stuck_reports, 2u);
}

TEST(FaultInjector, CorruptFieldManglesExactlyOneField) {
  const auto input = MixedStream(30);
  FaultSchedule schedule;
  schedule.specs.push_back(Spec(FaultKind::kCorruptField, 1.0));
  FaultInjector injector(schedule);
  const auto out = injector.Apply(input);
  ASSERT_EQ(out.size(), input.size());
  EXPECT_EQ(injector.counters().corrupted, input.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NE(out[i], input[i]) << "event " << i << " not corrupted";
    EXPECT_EQ(out[i].date, input[i].date);  // timestamps never corrupted
  }
}

TEST(FaultInjector, FlapReplaysPreviousValueBeforeCurrent) {
  std::vector<events::Event> input;
  input.push_back(Sensor(0, "temp_sensor", "optimal"));
  input.push_back(Sensor(1, "temp_sensor", "below_optimal"));
  input.push_back(Sensor(2, "temp_sensor", "optimal"));
  FaultSchedule schedule;
  schedule.specs.push_back(Spec(FaultKind::kDeviceFlap, 1.0));
  FaultInjector injector(schedule);
  const auto out = injector.Apply(input);
  // First event has no previous value; the next two each gain one stale
  // contradictory report ahead of them.
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].attribute_value, "optimal");
  EXPECT_EQ(out[1].attribute_value, "optimal");        // stale replay
  EXPECT_EQ(out[2].attribute_value, "below_optimal");
  EXPECT_EQ(out[3].attribute_value, "below_optimal");  // stale replay
  EXPECT_EQ(out[4].attribute_value, "optimal");
  EXPECT_EQ(injector.counters().flap_reports, 2u);
}

TEST(FaultInjector, SizeInvariantUnderMixedSchedule) {
  const auto input = MixedStream(400);
  FaultSchedule schedule;
  schedule.seed = 99;
  schedule.specs.push_back(Spec(FaultKind::kDrop, 0.1));
  schedule.specs.push_back(Spec(FaultKind::kDuplicate, 0.15));
  schedule.specs.push_back(Spec(FaultKind::kDelay, 0.2));
  schedule.specs.push_back(Spec(FaultKind::kReorder, 0.1));
  schedule.specs.push_back(Spec(FaultKind::kCorruptField, 0.05));
  schedule.specs.push_back(Spec(FaultKind::kDeviceFlap, 0.3));
  FaultSpec offline;
  offline.kind = FaultKind::kDeviceOffline;
  offline.rate = 1.0;
  offline.device_label = "light";
  offline.window_start = util::SimTime(100);
  offline.window_end = util::SimTime(150);
  schedule.specs.push_back(offline);

  FaultInjector injector(schedule);
  const auto out = injector.Apply(input);
  const FaultCounters& c = injector.counters();
  EXPECT_GT(c.total(), 0u);
  // Delays and reorders move events; only drops remove and only duplicates
  // and flaps add.
  EXPECT_EQ(out.size(), input.size() - c.dropped - c.offline_drops +
                            c.duplicated + c.flap_reports);
}

}  // namespace
}  // namespace jarvis::faults
