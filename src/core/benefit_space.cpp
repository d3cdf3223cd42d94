#include "core/benefit_space.h"

#include <stdexcept>

#include "util/stats.h"

namespace jarvis::core {

double MetricFor(const std::string& focus, const sim::DayMetrics& metrics) {
  if (focus == "energy") return metrics.energy_kwh;
  if (focus == "cost") return metrics.cost_usd;
  if (focus == "temp") return metrics.comfort_error_c_min;
  throw std::invalid_argument("MetricFor: unknown focus " + focus);
}

std::vector<SweepPoint> FunctionalitySweep(Jarvis& jarvis,
                                           const sim::SmartStarDataset& data,
                                           const SweepConfig& config) {
  if (!jarvis.learned()) {
    throw std::logic_error("FunctionalitySweep: Jarvis has not learned");
  }
  // Small samples are stratified across the year so every run sees winter,
  // summer, and shoulder seasons (a uniform 4-day draw can land entirely
  // on mild days and make the comfort comparison vacuous); larger samples
  // use the dataset's uniform random draw like the paper's 30 random days.
  std::vector<int> day_indices;
  if (config.days < 10) {
    const int offset =
        static_cast<int>(config.day_sample_seed % 30);
    for (int i = 0; i < config.days; ++i) {
      day_indices.push_back((offset + i * 365 / config.days) % 365);
    }
  } else {
    day_indices = data.SampleDays(config.days, config.day_sample_seed);
  }

  std::vector<SweepPoint> points;
  for (double f : config.f_values) {
    const rl::RewardWeights weights = rl::RewardWeights::Sweep(config.focus, f);
    util::OnlineStats normal_stats;
    util::OnlineStats jarvis_stats;
    std::size_t violations = 0;
    for (int day : day_indices) {
      const sim::DayTrace natural = data.Day(day);
      DayPlan plan = jarvis.OptimizeDay(natural, weights);
      normal_stats.Add(MetricFor(config.focus, plan.normal_metrics));
      jarvis_stats.Add(MetricFor(config.focus, plan.optimized_metrics));
      violations += plan.violations;
    }
    points.push_back({f, normal_stats.mean(), jarvis_stats.mean(),
                      normal_stats.stddev(), jarvis_stats.stddev(),
                      violations});
  }
  return points;
}

std::vector<ExplorationPoint> ExplorationComparison(
    const fsm::EnvironmentFsm& fsm, const spl::SafetyPolicyLearner& learner,
    const sim::DayTrace& natural, const JarvisConfig& config,
    const ExplorationConfig& exploration) {
  rl::IoTEnvConfig constrained_config;
  constrained_config.weights = exploration.weights;
  constrained_config.constrained = true;
  rl::IoTEnvConfig unconstrained_config = constrained_config;
  unconstrained_config.constrained = false;

  rl::IoTEnv constrained_env(fsm, natural, sim::ThermalConfig{}, &learner,
                             constrained_config);
  rl::IoTEnv unconstrained_env(fsm, natural, sim::ThermalConfig{}, &learner,
                               unconstrained_config);

  rl::DqnConfig dqn = config.dqn;
  dqn.seed = exploration.seed;
  // The comparison wants both agents near convergence by the later
  // episodes (the paper's Fig. 9 contrasts the *promised* rewards, not
  // random flailing), so exploration anneals aggressively: a lenient loss
  // gate and a faster decay.
  dqn.preferable_loss = 3.0;
  dqn.epsilon_decay = 0.95;
  rl::DqnAgent constrained_agent(constrained_env.feature_width(), fsm.codec(),
                                 dqn);
  dqn.seed = exploration.seed ^ 0xffULL;
  rl::DqnAgent unconstrained_agent(unconstrained_env.feature_width(),
                                   fsm.codec(), dqn);

  std::vector<ExplorationPoint> points;
  for (int ep = 0; ep < exploration.episodes; ++ep) {
    ExplorationPoint point;
    point.episode = ep;

    for (auto* pair : {&constrained_env, &unconstrained_env}) {
      rl::DqnAgent& agent = pair == &constrained_env ? constrained_agent
                                                     : unconstrained_agent;
      rl::IoTEnv& env = *pair;
      env.Reset();
      while (!env.done()) {
        const auto features = env.Features();
        const auto mask = env.SafeSlotMask();
        const auto action = agent.SelectAction(features, mask, false);
        const rl::StepResult step = env.Step(action);
        rl::Experience experience;
        experience.features = features;
        experience.taken_slots = fsm.codec().ActionToSlots(action);
        experience.reward = step.reward;
        experience.done = step.done;
        if (!step.done) {
          experience.next_features = env.Features();
          experience.next_mask = env.SafeSlotMask();
        } else {
          experience.next_features.assign(features.size(), 0.0);
          experience.next_mask.assign(fsm.codec().mini_action_count(), false);
        }
        agent.Remember(std::move(experience));
        agent.Replay();
      }
    }
    point.constrained_reward = constrained_env.cumulative_reward();
    point.unconstrained_reward = unconstrained_env.cumulative_reward();
    point.constrained_violations = constrained_env.violations();
    point.unconstrained_violations = unconstrained_env.violations();
    points.push_back(point);

    // Common annealing schedule: the unconstrained action space is far
    // larger, so its replay loss settles later; a per-episode decay keeps
    // the two exploration schedules comparable.
    for (int i = 0; i < 3; ++i) {
      constrained_agent.DecayEpsilonOnce();
      unconstrained_agent.DecayEpsilonOnce();
    }
  }
  return points;
}

}  // namespace jarvis::core
