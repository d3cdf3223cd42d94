// Quickstart: the complete Jarvis pipeline on the 11-device smart home.
//
//   1. Simulate a one-week learning phase of natural resident behavior.
//   2. Learn safety/security policies (Algorithm 1 + ANN filter).
//   3. Audit an injected attack and a benign anomaly.
//   4. Train the constrained DQN for one day (Algorithm 2) and compare the
//      optimized day against normal behavior.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "core/benefit_space.h"
#include "core/jarvis.h"
#include "sim/testbed.h"

int main() {
  using namespace jarvis;

  std::printf("=== Jarvis quickstart ===\n\n");

  // The evaluation testbed: Home A (OpenSHS-style) and Home B
  // (Smart*-style).
  sim::TestbedConfig testbed_config;
  testbed_config.benign_anomaly_samples = 4000;  // keep the demo snappy
  sim::Testbed testbed(testbed_config);
  const fsm::EnvironmentFsm& home = testbed.home_a();
  std::printf("Home A: %zu devices, %zu mini-actions, state space %llu\n",
              home.device_count(), home.codec().mini_action_count(),
              static_cast<unsigned long long>(home.codec().state_space_size()));

  // --- Learning phase ------------------------------------------------------
  core::JarvisConfig config;
  config.trainer.episodes = 8;
  core::Jarvis jarvis(home, config);

  const auto episodes = testbed.HomeALearningEpisodes();
  const auto labeled = testbed.BuildTrainingSet();
  jarvis.LearnPolicies(episodes, labeled);
  std::printf("Learning phase: %zu episodes, %zu labeled samples\n",
              episodes.size(), labeled.size());
  std::printf("P_safe: %zu observed keys, %zu admitted\n",
              jarvis.learner().table().observed_key_count(),
              jarvis.learner().table().admitted_key_count());

  // --- Safety audit ----------------------------------------------------—--
  const auto violations = testbed.BuildViolations();
  std::printf("\nAuditing 3 of %zu crafted violations:\n", violations.size());
  const auto base = testbed.HomeALearningEpisodes().front();
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& violation = violations[i * 60];
    const auto injected =
        sim::AttackGenerator::InjectIntoEpisode(home, base, violation);
    const auto audit = jarvis.Audit(injected);
    std::printf("  [%s] %s -> %zu violation flags\n",
                sim::ViolationTypeName(violation.type).c_str(),
                violation.description.c_str(), audit.violations);
  }

  // --- Optimize a day --------------------------------------------------—--
  const sim::DayTrace day = testbed.home_b_data().Day(42);
  rl::RewardWeights weights;  // balanced energy / cost / temperature
  std::printf("\nOptimizing day 42 (balanced weights)...\n");
  const core::DayPlan plan = jarvis.OptimizeDay(day, weights);

  std::printf("  normal   : %.2f kWh, $%.2f, %.0f degC-min discomfort\n",
              plan.normal_metrics.energy_kwh, plan.normal_metrics.cost_usd,
              plan.normal_metrics.comfort_error_c_min);
  std::printf("  jarvis   : %.2f kWh, $%.2f, %.0f degC-min discomfort\n",
              plan.optimized_metrics.energy_kwh,
              plan.optimized_metrics.cost_usd,
              plan.optimized_metrics.comfort_error_c_min);
  std::printf("  violations by optimized policy: %zu (constrained => 0)\n",
              plan.violations);
  std::printf("  greedy episode reward: %.1f (training: first %.1f, last %.1f)\n",
              plan.train.greedy_reward, plan.train.episode_rewards.front(),
              plan.train.episode_rewards.back());

  // --- Suggest an action ---------------------------------------------—----
  const auto suggestion = jarvis.SuggestAction(day.episode.initial_state(),
                                               7 * 60 + 30);
  std::printf("\nSuggested action at 07:30: %s\n",
              home.codec().ActionToString(home.devices(), suggestion).c_str());
  std::printf("\nDone.\n");
  return 0;
}
