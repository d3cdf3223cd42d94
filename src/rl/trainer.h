// Training loop for Algorithm 2: runs the agent through EP episodes of the
// simulated environment, storing experiences and replaying mini-batches,
// then evaluates the learnt policy greedily and reports both the reward
// trajectory and the physical day metrics (energy / cost / comfort) that
// the functionality benches compare against normal behavior.
#pragma once

#include <vector>

#include "obs/metrics.h"
#include "rl/dqn_agent.h"
#include "rl/iot_env.h"

namespace jarvis::rl {

struct TrainerConfig {
  int episodes = 24;  // EP; one replay() call per decision instant
  // Episodes at the start of training driven by the resident's natural
  // behavior instead of the agent (experiences are stored and replayed as
  // usual). Deep-Q from demonstrations, scaled down: gives the value
  // function a known-good trajectory so sustained-control optima (hours of
  // winter heating) are discoverable from any seed.
  int demonstration_episodes = 2;
};

struct TrainResult {
  std::vector<double> episode_rewards;   // training episodes, in order
  double final_epsilon = 0.0;
  double final_loss = 0.0;
  std::size_t training_violations = 0;   // summed over training episodes

  // Divergence recovery accounting: how many episodes were aborted because
  // the agent diverged (DqnAgent::diverged), and how many poisoned
  // experiences the recoveries dropped from the replay memory.
  std::size_t divergence_recoveries = 0;
  std::size_t poisoned_experiences_purged = 0;

  // Greedy evaluation episode after training.
  double greedy_reward = 0.0;
  std::size_t greedy_violations = 0;
  sim::DayMetrics greedy_metrics;
  fsm::Episode greedy_episode{{1, 1}, util::SimTime(0), {0}};
};

// Trains `agent` on `env` and greedily evaluates. The env is reset as
// needed; after return it holds the greedy evaluation episode. When
// `metrics` is non-null the run bumps rl.trainer.* counters (episodes,
// steps, divergence recoveries, purged experiences) and wires the agent
// (rl.agent.*) for the duration of the call; observation only — the
// training trajectory is identical either way.
TrainResult Train(IoTEnv& env, DqnAgent& agent, TrainerConfig config,
                  obs::Registry* metrics = nullptr);

// Runs one greedy (no exploration, no learning) episode and returns its
// cumulative reward. The env afterwards holds the episode.
double RunGreedyEpisode(IoTEnv& env, DqnAgent& agent);

}  // namespace jarvis::rl
