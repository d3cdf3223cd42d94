// Tests for the training-loop extensions: demonstration episodes, sticky
// exploration, per-episode epsilon decay, and violation accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "fsm/device_library.h"
#include "rl/dqn_agent.h"
#include "rl/trainer.h"
#include "sim/testbed.h"

namespace jarvis::rl {
namespace {

class TrainerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::TestbedConfig config;
    config.benign_anomaly_samples = 1500;
    testbed_ = new sim::Testbed(config);
    learner_ = new spl::SafetyPolicyLearner(testbed_->home_a(),
                                            spl::SplConfig{});
    learner_->Learn(testbed_->HomeALearningEpisodes(),
                    testbed_->BuildTrainingSet());
    // Day 17: deep winter, the sustained-heating stress case.
    natural_ = new sim::DayTrace(testbed_->home_b_data().Day(17));
  }
  static void TearDownTestSuite() {
    delete natural_;
    delete learner_;
    delete testbed_;
    natural_ = nullptr;
    learner_ = nullptr;
    testbed_ = nullptr;
  }

  IoTEnv MakeEnv(RewardWeights weights = {}) const {
    IoTEnvConfig config;
    config.weights = weights;
    return IoTEnv(testbed_->home_a(), *natural_, sim::ThermalConfig{},
                  learner_, config);
  }

  static sim::Testbed* testbed_;
  static spl::SafetyPolicyLearner* learner_;
  static sim::DayTrace* natural_;
};

sim::Testbed* TrainerFixture::testbed_ = nullptr;
spl::SafetyPolicyLearner* TrainerFixture::learner_ = nullptr;
sim::DayTrace* TrainerFixture::natural_ = nullptr;

TEST_F(TrainerFixture, DemonstrationHeatsAColdOccupiedHouse) {
  IoTEnv env = MakeEnv();
  env.Reset();
  const auto& home = testbed_->home_a();
  const auto thermostat = home.DeviceIdByLabel("thermostat");
  // Walk to an occupied minute; on the winter day the house cools fast
  // with the heater off, so the demo must call for heat within the first
  // few hours.
  bool heated = false;
  while (!env.done() && env.current_minute() < 6 * 60) {
    const auto demo = env.DemonstrationAction();
    const auto idx = static_cast<std::size_t>(thermostat);
    if (demo[idx] != fsm::kNoAction &&
        home.device(thermostat).action_name(demo[idx]) == "increase_temp") {
      heated = true;
      break;
    }
    env.Step(demo);
  }
  EXPECT_TRUE(heated);
}

TEST_F(TrainerFixture, DemonstrationNeverTouchesResidentDevices) {
  IoTEnv env = MakeEnv();
  env.Reset();
  const auto& home = testbed_->home_a();
  const std::vector<std::string> resident_owned = {
      "lock", "fridge", "oven", "tv", "coffee_maker", "door_sensor",
      "temp_sensor"};
  while (!env.done()) {
    const auto demo = env.DemonstrationAction();
    for (const auto& label : resident_owned) {
      const auto id = home.DeviceIdByLabel(label);
      EXPECT_EQ(demo[static_cast<std::size_t>(id)], fsm::kNoAction)
          << label << " is resident-owned";
    }
    env.Step(demo);
  }
}

TEST_F(TrainerFixture, DemonstrationEpisodeOutperformsDoingNothing) {
  IoTEnv env = MakeEnv();
  env.Reset();
  while (!env.done()) env.Step(env.DemonstrationAction());
  const double demo_reward = env.cumulative_reward();
  const auto demo_metrics = env.Metrics();

  env.Reset();
  const fsm::ActionVector noop(testbed_->home_a().device_count(),
                               fsm::kNoAction);
  while (!env.done()) env.Step(noop);
  EXPECT_GT(demo_reward, env.cumulative_reward())
      << "the app-policy demonstration must beat do-nothing on a winter day";
  EXPECT_LT(demo_metrics.comfort_error_c_min,
            env.Metrics().comfort_error_c_min / 2.0);
}

TEST_F(TrainerFixture, TrainWithDemonstrationsKeepsComfortBasin) {
  IoTEnv env = MakeEnv(RewardWeights::Sweep("temp", 0.5));
  DqnConfig dqn;
  dqn.seed = 99;  // a seed that historically fell into the cold basin
  DqnAgent agent(env.feature_width(), testbed_->home_a().codec(), dqn);
  TrainerConfig config;
  config.episodes = 16;
  config.demonstration_episodes = 2;
  const TrainResult result = Train(env, agent, config);
  // The greedy policy must be no worse than the raw demonstration.
  env.Reset();
  while (!env.done()) env.Step(env.DemonstrationAction());
  EXPECT_GT(result.greedy_reward, env.cumulative_reward() * 0.9);
}

TEST_F(TrainerFixture, ViolationEventsBoundDistinctPatterns) {
  IoTEnvConfig config;
  config.constrained = false;
  IoTEnv env(testbed_->home_a(), *natural_, sim::ThermalConfig{}, learner_,
             config);
  DqnConfig dqn;
  dqn.epsilon = 1.0;
  DqnAgent agent(env.feature_width(), testbed_->home_a().codec(), dqn);
  env.Reset();
  while (!env.done()) {
    env.Step(agent.SelectAction(env.Features(), env.SafeSlotMask(), false));
  }
  EXPECT_GT(env.violation_events(), 0u);
  EXPECT_LE(env.violations(), env.violation_events())
      << "distinct patterns can never exceed raw events";
}

TEST_F(TrainerFixture, DecayEpsilonOnceRespectsFloor) {
  DqnConfig config;
  config.epsilon = 0.2;
  config.epsilon_decay = 0.5;
  config.epsilon_min = 0.06;
  DqnAgent agent(2, testbed_->home_a().codec(), config);
  agent.DecayEpsilonOnce();
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.1);
  agent.DecayEpsilonOnce();
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.06);
  agent.DecayEpsilonOnce();
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.06);
}

TEST_F(TrainerFixture, StickyExplorationProducesStreaks) {
  const auto& codec = testbed_->home_a().codec();
  DqnConfig config;
  config.epsilon = 1.0;  // always exploring
  config.explore_repeat_prob = 0.9;
  DqnAgent sticky(4, codec, config);
  config.explore_repeat_prob = 0.0;
  DqnAgent uniform(4, codec, config);

  const std::vector<double> features = {0.1, 0.2, 0.3, 0.4};
  const std::vector<bool> mask(codec.mini_action_count(), true);
  auto repeat_rate = [&](DqnAgent& agent) {
    fsm::ActionVector previous;
    int repeats = 0, total = 0;
    for (int i = 0; i < 300; ++i) {
      const auto action = agent.SelectAction(features, mask, false);
      if (!previous.empty()) {
        for (std::size_t d = 0; d < action.size(); ++d) {
          repeats += action[d] == previous[d] ? 1 : 0;
          ++total;
        }
      }
      previous = action;
    }
    return static_cast<double>(repeats) / total;
  };
  EXPECT_GT(repeat_rate(sticky), repeat_rate(uniform) + 0.2);
}

TEST_F(TrainerFixture, DivergenceRecoveryRestoresWeightsAndPurges) {
  IoTEnv env = MakeEnv();
  const auto& codec = testbed_->home_a().codec();
  DqnConfig dqn;
  dqn.batch_size = 8;
  DqnAgent agent(env.feature_width(), codec, dqn);

  // Poison the replay memory before training: infinite rewards make the
  // very first replay pass produce a non-finite loss.
  for (int i = 0; i < 16; ++i) {
    Experience poison;
    poison.features.assign(env.feature_width(), 0.5);
    poison.taken_slots = {0};
    poison.reward = std::numeric_limits<double>::infinity();
    poison.next_features.assign(env.feature_width(), 0.0);
    poison.next_mask.assign(codec.mini_action_count(), false);
    poison.done = true;
    agent.Remember(poison);
  }

  TrainerConfig config;
  config.episodes = 2;
  config.demonstration_episodes = 1;
  const TrainResult result = Train(env, agent, config);

  EXPECT_GE(result.divergence_recoveries, 1u);
  EXPECT_GE(result.poisoned_experiences_purged, 16u);
  EXPECT_FALSE(agent.diverged());
  // The restored weights produce finite values end to end.
  env.Reset();
  for (double q : agent.QValues(env.Features())) {
    EXPECT_TRUE(std::isfinite(q));
  }
  EXPECT_TRUE(std::isfinite(result.greedy_reward));
  EXPECT_EQ(result.episode_rewards.size(), 2u);
}

TEST_F(TrainerFixture, ReseedExplorationRestartsSchedule) {
  DqnConfig config;
  config.epsilon = 0.8;
  DqnAgent agent(2, testbed_->home_a().codec(), config);
  agent.DecayEpsilonOnce();
  ASSERT_LT(agent.epsilon(), 0.8);
  agent.ReseedExploration(1234);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.8);
  EXPECT_FALSE(agent.diverged());
}

TEST_F(TrainerFixture, DemonstrationEpisodesConfigurable) {
  IoTEnv env = MakeEnv();
  DqnConfig dqn;
  DqnAgent agent(env.feature_width(), testbed_->home_a().codec(), dqn);
  TrainerConfig config;
  config.episodes = 3;
  config.demonstration_episodes = 0;  // pure self-play still works
  const TrainResult result = Train(env, agent, config);
  EXPECT_EQ(result.episode_rewards.size(), 3u);
}

void ExpectSameEpisode(const fsm::Episode& actual,
                       const fsm::Episode& expected, const std::string& what) {
  EXPECT_EQ(actual.start_time(), expected.start_time()) << what;
  EXPECT_EQ(actual.initial_state(), expected.initial_state()) << what;
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const auto& a = actual.steps()[i];
    const auto& e = expected.steps()[i];
    ASSERT_TRUE(a.time == e.time && a.state == e.state && a.action == e.action)
        << what << ": step " << i << " differs";
  }
}

void ExpectBitEqual(double actual, double expected, const std::string& what) {
  EXPECT_EQ(std::memcmp(&actual, &expected, sizeof(double)), 0)
      << what << ": " << actual << " vs " << expected;
}

// Train keeps its last greedy evaluation when that evaluation chose the
// restored snapshot, and replays the snapshot otherwise. Either way env
// holds the greedy episode on return, and one more greedy episode of the
// returned agent reproduces every greedy field bit for bit. A 3-episode
// run's best episode is its last exactly when its greedy reward differs
// from the 2-episode run's on the same seed (the first two episodes are
// the same run), so the seeds below are checked to cover both cases.
TEST_F(TrainerFixture, GreedyResultMatchesAGreedyEpisodeAfterTrain) {
  bool saw_best_last = false;
  bool saw_best_not_last = false;
  for (const std::uint64_t seed : {11u, 12u}) {
    for (const int episodes : {1, 3}) {
      const std::string what =
          "seed " + std::to_string(seed) + ", " + std::to_string(episodes) +
          " episode(s)";
      IoTEnv env = MakeEnv();
      DqnConfig dqn;
      dqn.seed = seed;
      DqnAgent agent(env.feature_width(), testbed_->home_a().codec(), dqn);
      TrainerConfig config;
      config.episodes = episodes;
      config.demonstration_episodes = 1;
      const TrainResult result = Train(env, agent, config);
      ExpectSameEpisode(env.episode(), result.greedy_episode,
                        what + ", env on return");

      const double reward = RunGreedyEpisode(env, agent);
      ExpectBitEqual(reward, result.greedy_reward, what + " reward");
      EXPECT_EQ(env.violations(), result.greedy_violations) << what;
      const sim::DayMetrics metrics = env.Metrics();
      ExpectBitEqual(metrics.energy_kwh, result.greedy_metrics.energy_kwh,
                     what + " energy");
      ExpectBitEqual(metrics.cost_usd, result.greedy_metrics.cost_usd,
                     what + " cost");
      ExpectBitEqual(metrics.comfort_error_c_min,
                     result.greedy_metrics.comfort_error_c_min,
                     what + " comfort");
      ExpectBitEqual(metrics.comfort_error_all_c_min,
                     result.greedy_metrics.comfort_error_all_c_min,
                     what + " comfort (all minutes)");
      ExpectSameEpisode(env.episode(), result.greedy_episode,
                        what + ", replayed");

      if (episodes == 3) {
        IoTEnv shorter_env = MakeEnv();
        DqnAgent shorter_agent(shorter_env.feature_width(),
                               testbed_->home_a().codec(), dqn);
        config.episodes = 2;
        const TrainResult shorter = Train(shorter_env, shorter_agent, config);
        const bool best_last = std::memcmp(&shorter.greedy_reward,
                                           &result.greedy_reward,
                                           sizeof(double)) != 0;
        (best_last ? saw_best_last : saw_best_not_last) = true;
      }
    }
  }
  EXPECT_TRUE(saw_best_last);
  EXPECT_TRUE(saw_best_not_last);
}

}  // namespace
}  // namespace jarvis::rl
