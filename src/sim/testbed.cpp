#include "sim/testbed.h"
#include <algorithm>

namespace jarvis::sim {

Testbed::Testbed(TestbedConfig config)
    : config_(config),
      home_a_(fsm::BuildFullHome()),
      home_b_(fsm::BuildFullHome()),
      home_b_data_(std::make_unique<SmartStarDataset>(home_b_,
                                                      config.seed ^ 0xb0bULL)) {}

ScenarioGenerator Testbed::home_a_generator() const {
  return ScenarioGenerator(ScheduleConfig{}, WeatherConfig{}, PriceConfig{},
                           config_.seed);
}

std::vector<DayTrace> Testbed::HomeALearningTraces() const {
  // The learning days are spread across the year so the learnt safe
  // behavior covers seasonal routines (heating in winter, cooling in
  // summer). A single contiguous January week would never observe cooling
  // and P_safe would block it forever — the "rare situations" caveat of
  // Section V-B-1 applied to seasons.
  ResidentSimulator simulator(home_a_, ThermalConfig{}, config_.seed ^ 0xa11ceULL);
  const ScenarioGenerator generator = home_a_generator();
  std::vector<DayTrace> traces;
  const int stride = std::max(1, 365 / std::max(1, config_.learning_days));
  fsm::StateVector state = simulator.OvernightState();
  for (int i = 0; i < config_.learning_days; ++i) {
    const DayScenario scenario = generator.Generate(i * stride);
    traces.push_back(simulator.SimulateDay(scenario, state,
                                           ThermalConfig{}.initial_indoor_c));
  }
  return traces;
}

std::vector<fsm::Episode> Testbed::HomeALearningEpisodes() const {
  std::vector<fsm::Episode> episodes;
  for (auto& trace : HomeALearningTraces()) {
    episodes.push_back(std::move(trace.episode));
  }
  return episodes;
}

std::vector<LabeledSample> Testbed::BuildTrainingSet() const {
  const auto episodes = HomeALearningEpisodes();
  const auto normal = fsm::ExtractTriggerActions(episodes);
  AnomalyGenerator generator(home_a_, config_.seed ^ 0xbadULL);
  return generator.BuildTrainingSet(normal, config_.benign_anomaly_samples);
}

std::vector<Violation> Testbed::BuildViolations() const {
  AttackGenerator generator(home_a_, config_.seed ^ 0xdeadULL);
  return generator.GenerateAll();
}

}  // namespace jarvis::sim
