// Microbenchmarks (google-benchmark) for the fault-injection subsystem:
// FaultInjector::Apply throughput over a day-scale event stream under
// schedules of increasing complexity. These bound the overhead of running
// chaos sweeps in CI.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "events/event.h"
#include "faults/injector.h"
#include "faults/schedule.h"
#include "util/rng.h"

namespace {

using namespace jarvis;

// A mixed day-scale stream: alternating sensor reports and commands across
// a handful of devices, one event per minute.
std::vector<events::Event> MakeStream(int count) {
  static const std::vector<std::string> kDevices = {
      "light", "temp_sensor", "thermostat", "lock", "door_sensor"};
  util::Rng rng(42);
  std::vector<events::Event> events;
  events.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    events::Event event;
    event.date = util::SimTime(i);
    event.device_label = kDevices[rng.NextIndex(kDevices.size())];
    event.capability = "sensor";
    event.attribute = "state";
    event.attribute_value = rng.NextBool(0.5) ? "on" : "off";
    if (rng.NextBool(0.3)) event.command = "power_on";
    events.push_back(std::move(event));
  }
  return events;
}

faults::FaultSpec Spec(faults::FaultKind kind, double rate) {
  faults::FaultSpec spec;
  spec.kind = kind;
  spec.rate = rate;
  return spec;
}

faults::FaultSchedule FullSchedule() {
  faults::FaultSchedule schedule;
  schedule.seed = 7;
  schedule.specs.push_back(Spec(faults::FaultKind::kDrop, 0.05));
  schedule.specs.push_back(Spec(faults::FaultKind::kDuplicate, 0.05));
  schedule.specs.push_back(Spec(faults::FaultKind::kDelay, 0.1));
  schedule.specs.push_back(Spec(faults::FaultKind::kReorder, 0.05));
  schedule.specs.push_back(Spec(faults::FaultKind::kCorruptField, 0.02));
  schedule.specs.push_back(Spec(faults::FaultKind::kDeviceFlap, 0.1));
  schedule.specs.push_back(Spec(faults::FaultKind::kStuckSensor, 0.1));
  return schedule;
}

void BM_InjectorApplyEmptySchedule(benchmark::State& state) {
  const auto events = MakeStream(static_cast<int>(state.range(0)));
  faults::FaultInjector injector({});
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.Apply(events));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_InjectorApplyEmptySchedule)->Arg(1440)->Arg(14400);

void BM_InjectorApplyDropOnly(benchmark::State& state) {
  const auto events = MakeStream(static_cast<int>(state.range(0)));
  faults::FaultSchedule schedule;
  schedule.specs.push_back(Spec(faults::FaultKind::kDrop, 0.1));
  faults::FaultInjector injector(schedule);
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.Apply(events));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_InjectorApplyDropOnly)->Arg(1440)->Arg(14400);

void BM_InjectorApplyFullSchedule(benchmark::State& state) {
  const auto events = MakeStream(static_cast<int>(state.range(0)));
  faults::FaultInjector injector(FullSchedule());
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.Apply(events));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_InjectorApplyFullSchedule)->Arg(1440)->Arg(14400);

}  // namespace

BENCHMARK_MAIN();
