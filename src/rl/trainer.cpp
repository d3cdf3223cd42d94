#include "rl/trainer.h"

#include <limits>

namespace jarvis::rl {

namespace {

std::vector<std::size_t> TakenSlots(const fsm::StateCodec& codec,
                                    const fsm::ActionVector& action) {
  // Every device contributes a slot (no-op included) so the network also
  // learns the value of leaving devices alone.
  return codec.ActionToSlots(action);
}

}  // namespace

double RunGreedyEpisode(IoTEnv& env, DqnAgent& agent) {
  env.Reset();
  while (!env.done()) {
    const auto features = env.Features();
    const auto mask = env.SafeSlotMask();
    env.Step(agent.SelectAction(features, mask, /*greedy=*/true));
  }
  return env.cumulative_reward();
}

TrainResult Train(IoTEnv& env, DqnAgent& agent, TrainerConfig config,
                  obs::Registry* metrics) {
  TrainResult result;
  const auto& codec = env.fsm().codec();
  double best_greedy = -std::numeric_limits<double>::infinity();
  // True while env holds the greedy evaluation of the best snapshot.
  bool env_holds_best = false;

  // Trainer-level counters are bumped per episode (from local tallies),
  // never inside the step loop; the agent's own hot-loop instruments are
  // wired through SetMetrics and null-checked at their call sites.
  obs::Counter* episodes_counter = nullptr;
  obs::Counter* steps_counter = nullptr;
  obs::Counter* recoveries_counter = nullptr;
  obs::Counter* purged_counter = nullptr;
  if (metrics != nullptr) {
    agent.SetMetrics(metrics);
    episodes_counter = metrics->GetCounter("rl.trainer.episodes");
    steps_counter = metrics->GetCounter("rl.trainer.steps");
    recoveries_counter =
        metrics->GetCounter("rl.trainer.divergence_recoveries");
    purged_counter = metrics->GetCounter("rl.trainer.purged_experiences");
  }

  // Last-good-weights baseline: taken before any replay pass so divergence
  // recovery always has a snapshot to fall back to, even in episode 0.
  // Best-greedy tracking below overwrites it with strictly better weights.
  agent.SaveSnapshot();

  for (int ep = 0; ep < config.episodes; ++ep) {
    const bool demonstrate = ep < config.demonstration_episodes;
    bool aborted = false;
    std::size_t episode_steps = 0;
    env.Reset();
    env_holds_best = false;
    // Each state's features and mask are built once: a step's next state
    // is the following step's current one.
    std::vector<double> features = env.Features();
    std::vector<bool> mask = env.SafeSlotMask();
    while (!env.done()) {
      ++episode_steps;
      const auto action = demonstrate
                              ? env.DemonstrationAction()
                              : agent.SelectAction(features, mask, false);
      const StepResult step = env.Step(action);

      Experience experience;
      experience.features = features;
      experience.taken_slots = TakenSlots(codec, action);
      experience.reward = step.reward;
      experience.done = step.done;
      if (!step.done) {
        experience.next_features = env.Features();
        experience.next_mask = env.SafeSlotMask();
        // Same widths: the assignments reuse the buffers.
        features = experience.next_features;
        mask = experience.next_mask;
      } else {
        experience.next_features.assign(features.size(), 0.0);
        experience.next_mask.assign(codec.mini_action_count(), false);
      }
      agent.Remember(std::move(experience));
      result.final_loss = agent.Replay();

      // Divergence recovery: a non-finite or exploding replay loss means
      // the network is gone — abort the episode, restore the last good
      // weights, drop the poisoned experiences, and restart exploration on
      // a fresh RNG stream so the run stays deterministic but does not
      // retrace the diverging trajectory.
      if (agent.diverged()) {
        ++result.divergence_recoveries;
        agent.RestoreSnapshot();
        const std::size_t purged = agent.PurgePoisonedExperiences();
        result.poisoned_experiences_purged += purged;
        if (recoveries_counter != nullptr) {
          recoveries_counter->Increment();
          purged_counter->Increment(purged);
        }
        agent.ReseedExploration(agent.config().seed ^
                                (0x9e3779b97f4a7c15ULL *
                                 (result.divergence_recoveries + 1)));
        aborted = true;
        break;
      }
    }
    result.episode_rewards.push_back(env.cumulative_reward());
    result.training_violations += env.violations();
    if (episodes_counter != nullptr) {
      episodes_counter->Increment();
      steps_counter->Increment(episode_steps);
    }
    // An aborted episode's weights were just restored from the snapshot:
    // re-evaluating them greedily would re-measure the snapshot itself.
    if (aborted) continue;

    // Track the best greedy policy seen: epsilon-greedy training is noisy
    // and the final network is not always the best one.
    const double greedy = RunGreedyEpisode(env, agent);
    if (greedy > best_greedy) {
      best_greedy = greedy;
      agent.SaveSnapshot();
      env_holds_best = true;
    }
  }
  result.final_epsilon = agent.epsilon();
  if (agent.has_snapshot()) agent.RestoreSnapshot();

  // A greedy episode draws no RNG and Reset is deterministic, so when the
  // last thing run on env is the evaluation that chose the restored
  // snapshot, env already holds the episode a replay would produce.
  result.greedy_reward =
      env_holds_best ? best_greedy : RunGreedyEpisode(env, agent);
  result.greedy_violations = env.violations();
  result.greedy_metrics = env.Metrics();
  result.greedy_episode = env.episode();
  return result;
}

}  // namespace jarvis::rl
