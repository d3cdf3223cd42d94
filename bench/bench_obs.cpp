// Observability overhead microbenches: the raw cost of each instrument's
// hot path (relaxed atomics), the unwired (null-pointer) path, and — the
// acceptance gate — the DQN hot loops instrumented vs uninstrumented. The
// contract is <= 5% overhead on SelectAction/Replay with metrics wired.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "fsm/device_library.h"
#include "obs/metrics.h"
#include "rl/dqn_agent.h"

namespace {

using namespace jarvis;

const fsm::EnvironmentFsm& Home() {
  static const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  return home;
}

void BM_CounterIncrement(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter* counter = registry.GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->Value());
}
BENCHMARK(BM_CounterIncrement);

void BM_CounterNullCheckOnly(benchmark::State& state) {
  // The unwired path every instrumented call site pays: one pointer test.
  obs::Counter* counter = nullptr;
  benchmark::DoNotOptimize(counter);
  for (auto _ : state) {
    if (counter != nullptr) counter->Increment();
  }
}
BENCHMARK(BM_CounterNullCheckOnly);

void BM_GaugeSet(benchmark::State& state) {
  obs::Registry registry;
  obs::Gauge* gauge = registry.GetGauge("bench.gauge");
  double x = 0.0;
  for (auto _ : state) {
    gauge->Set(x);
    x += 1.0;
  }
  benchmark::DoNotOptimize(gauge->Value());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram* hist =
      registry.GetHistogram("bench.hist", obs::DefaultLatencyBoundsUs());
  double x = 0.0;
  for (auto _ : state) {
    hist->Observe(x);
    x += 13.0;
    if (x > 2.0e6) x = 0.0;
  }
  benchmark::DoNotOptimize(hist->Count());
}
BENCHMARK(BM_HistogramObserve);

void BM_RegistrySnapshot(benchmark::State& state) {
  obs::Registry registry;
  for (int i = 0; i < 32; ++i) {
    registry.GetCounter("bench.counter." + std::to_string(i))->Increment();
    registry.GetTimerUs("bench.timer." + std::to_string(i))->Observe(42.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.TakeSnapshot());
  }
}
BENCHMARK(BM_RegistrySnapshot)->Unit(benchmark::kMicrosecond);

// --- The acceptance gate: DQN hot loops, wired vs unwired ----------------

rl::DqnAgent MakeAgent(bool fill_replay) {
  rl::DqnConfig config;
  config.epsilon = 0.0;
  config.batch_size = 32;
  rl::DqnAgent agent(44, Home().codec(), config);
  if (fill_replay) {
    for (int i = 0; i < 256; ++i) {
      rl::Experience experience;
      experience.features.assign(44, 0.1 * (i % 10));
      experience.taken_slots = {
          static_cast<std::size_t>(i % Home().codec().mini_action_count())};
      experience.reward = 0.5;
      experience.next_features.assign(44, 0.2);
      experience.next_mask.assign(Home().codec().mini_action_count(), true);
      agent.Remember(std::move(experience));
    }
  }
  return agent;
}

void RunSelectAction(benchmark::State& state, bool instrumented) {
  obs::Registry registry;
  rl::DqnAgent agent = MakeAgent(false);
  if (instrumented) agent.SetMetrics(&registry);
  const std::vector<double> features(44, 0.3);
  const std::vector<bool> mask(Home().codec().mini_action_count(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.SelectAction(features, mask, true));
  }
}

void BM_DqnSelectActionBaseline(benchmark::State& state) {
  RunSelectAction(state, false);
}
BENCHMARK(BM_DqnSelectActionBaseline);

void BM_DqnSelectActionInstrumented(benchmark::State& state) {
  RunSelectAction(state, true);
}
BENCHMARK(BM_DqnSelectActionInstrumented);

void RunReplay(benchmark::State& state, bool instrumented) {
  obs::Registry registry;
  rl::DqnAgent agent = MakeAgent(true);
  if (instrumented) agent.SetMetrics(&registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.Replay());
  }
}

void BM_DqnReplayBaseline(benchmark::State& state) {
  RunReplay(state, false);
}
BENCHMARK(BM_DqnReplayBaseline)->Unit(benchmark::kMicrosecond);

void BM_DqnReplayInstrumented(benchmark::State& state) {
  RunReplay(state, true);
}
BENCHMARK(BM_DqnReplayInstrumented)->Unit(benchmark::kMicrosecond);

}  // namespace
