#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "fsm/device_library.h"
#include "json_edit.h"
#include "reference_kernels.h"
#include "rl/dqn_agent.h"
#include "rl/trainer.h"
#include "sim/testbed.h"
#include "util/json.h"
#include "util/rng.h"

namespace jarvis::rl {
namespace {

class AgentFixture : public ::testing::Test {
 protected:
  AgentFixture()
      : home_(fsm::ExampleHomeDevices()),
        codec_(home_.codec()) {}

  std::vector<bool> AllOn() const {
    return std::vector<bool>(codec_.mini_action_count(), true);
  }
  std::vector<bool> NoOpsOnly() const {
    std::vector<bool> mask(codec_.mini_action_count(), false);
    for (std::size_t d = 0; d < codec_.device_count(); ++d) {
      mask[codec_.NoOpSlot(static_cast<fsm::DeviceId>(d))] = true;
    }
    return mask;
  }

  fsm::EnvironmentFsm home_;
  const fsm::StateCodec& codec_;
};

TEST_F(AgentFixture, SelectActionRespectsMask) {
  DqnConfig config;
  config.epsilon = 1.0;  // fully random: stress the mask
  DqnAgent agent(4, codec_, config);
  const std::vector<double> features = {0.1, 0.2, 0.3, 0.4};
  std::vector<bool> mask = NoOpsOnly();
  // Allow exactly one real action: light power_on.
  const std::size_t light_on = codec_.MiniActionSlot({2, 1});
  mask[light_on] = true;
  for (int i = 0; i < 100; ++i) {
    const auto action = agent.SelectAction(features, mask, false);
    for (std::size_t d = 0; d < action.size(); ++d) {
      if (action[d] == fsm::kNoAction) continue;
      EXPECT_EQ(d, 2u);
      EXPECT_EQ(action[d], 1);
    }
  }
}

TEST_F(AgentFixture, GreedyModeIsDeterministic) {
  DqnAgent agent(4, codec_, DqnConfig{});
  const std::vector<double> features = {0.5, -0.5, 0.2, 0.0};
  const auto mask = AllOn();
  const auto first = agent.SelectAction(features, mask, true);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(agent.SelectAction(features, mask, true), first);
  }
}

TEST_F(AgentFixture, MaskWidthValidated) {
  DqnAgent agent(4, codec_, DqnConfig{});
  EXPECT_THROW(agent.SelectAction({0, 0, 0, 0}, {true, false}, true),
               std::invalid_argument);
}

TEST_F(AgentFixture, ReplayNoOpUntilBatchAvailable) {
  DqnConfig config;
  config.batch_size = 8;
  DqnAgent agent(2, codec_, config);
  EXPECT_DOUBLE_EQ(agent.Replay(), 0.0);
  for (int i = 0; i < 7; ++i) {
    Experience experience;
    experience.features = {0.0, 1.0};
    experience.taken_slots = {codec_.NoOpSlot(0)};
    experience.reward = 1.0;
    experience.done = true;
    agent.Remember(std::move(experience));
  }
  EXPECT_DOUBLE_EQ(agent.Replay(), 0.0);
  EXPECT_EQ(agent.replay_size(), 7u);
}

TEST_F(AgentFixture, QLearningPropagatesRewardToTakenSlot) {
  DqnConfig config;
  config.batch_size = 4;
  config.gamma = 0.0;  // pure immediate reward
  config.epsilon = 0.0;
  DqnAgent agent(2, codec_, config);
  const std::vector<double> features = {1.0, 0.0};
  const std::size_t good_slot = codec_.MiniActionSlot({2, 1});
  const std::size_t bad_slot = codec_.MiniActionSlot({2, 0});
  for (int i = 0; i < 200; ++i) {
    Experience good;
    good.features = features;
    good.taken_slots = {good_slot};
    good.reward = 1.0;
    good.done = true;
    agent.Remember(std::move(good));
    Experience bad;
    bad.features = features;
    bad.taken_slots = {bad_slot};
    bad.reward = -1.0;
    bad.done = true;
    agent.Remember(std::move(bad));
  }
  for (int i = 0; i < 600; ++i) agent.Replay();
  const auto q = agent.QValues(features);
  EXPECT_GT(q[good_slot], 0.5);
  EXPECT_LT(q[bad_slot], -0.5);
}

TEST_F(AgentFixture, EpsilonDecaysOnlyBelowPreferableLoss) {
  DqnConfig config;
  config.batch_size = 2;
  config.preferable_loss = 1e-12;  // unreachable: epsilon must not decay
  DqnAgent agent(2, codec_, config);
  for (int i = 0; i < 10; ++i) {
    Experience experience;
    experience.features = {0.1, 0.2};
    experience.taken_slots = {0};
    experience.reward = 5.0;
    experience.done = true;
    agent.Remember(std::move(experience));
  }
  for (int i = 0; i < 20; ++i) agent.Replay();
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
}

TEST_F(AgentFixture, SnapshotRestoreRoundTrip) {
  DqnAgent agent(2, codec_, DqnConfig{});
  const std::vector<double> features = {0.3, 0.6};
  EXPECT_FALSE(agent.has_snapshot());
  EXPECT_THROW(agent.RestoreSnapshot(), std::logic_error);
  const auto before = agent.QValues(features);
  agent.SaveSnapshot();
  // Perturb via training.
  for (int i = 0; i < 50; ++i) {
    Experience experience;
    experience.features = features;
    experience.taken_slots = {0};
    experience.reward = 10.0;
    experience.done = true;
    agent.Remember(std::move(experience));
  }
  for (int i = 0; i < 50; ++i) agent.Replay();
  EXPECT_NE(agent.QValues(features)[0], before[0]);
  agent.RestoreSnapshot();
  EXPECT_DOUBLE_EQ(agent.QValues(features)[0], before[0]);
}

// Q-values must be NaN exactly where the dense oracle's are, and bit-equal
// elsewhere.
void ExpectQMatchesDenseOracle(const DqnAgent& agent,
                               const std::vector<double>& features,
                               const std::string& what) {
  const auto q = agent.QValues(features);
  neural::Tensor row(1, features.size());
  row.SetRow(0, features);
  const neural::Tensor expected =
      neural::testing::ReferenceModel::FromNetwork(
          agent.network(), agent.config().learning_rate)
          .Predict(row);
  ASSERT_EQ(q.size(), expected.cols()) << what;
  for (std::size_t i = 0; i < q.size(); ++i) {
    const double e = expected.At(0, i);
    EXPECT_EQ(std::isnan(q[i]), std::isnan(e)) << what << " slot " << i;
    if (!std::isnan(e)) {
      EXPECT_EQ(std::memcmp(&q[i], &e, sizeof(double)), 0)
          << what << " slot " << i << ": " << q[i] << " vs " << e;
    }
  }
}

// Every layer's zero-skip flag must describe the weights it guards.
void ExpectFlagsMatchWeights(const DqnAgent& agent, const std::string& what) {
  for (const auto& layer : agent.network().layers()) {
    EXPECT_EQ(layer.weights_finite(), neural::AllFinite(layer.weights()))
        << what;
  }
}

// RestoreSnapshot writes weights, so the forward's zero skip must follow
// what it restores in both directions: a clean snapshot turns the skip back
// on over poisoned weights, and a poisoned one brings its non-finite
// weights back with the skip off, so NaN still reaches the Q-values through
// the zero features.
TEST_F(AgentFixture, RestoreSnapshotKeepsTheZeroSkipExact) {
  DqnConfig config;
  config.batch_size = 4;
  DqnAgent agent(4, codec_, config);
  const std::vector<double> probe = {0.0, 0.7, 0.0, -0.2};
  const auto clean_q = agent.QValues(probe);
  agent.SaveSnapshot();
  auto poison = [&] {
    for (int i = 0; i < 4; ++i) {
      Experience experience;
      experience.features = {0.5, 0.0, 1.0, 0.0};
      experience.taken_slots = {0};
      experience.reward = std::numeric_limits<double>::infinity();
      experience.done = true;
      agent.Remember(std::move(experience));
    }
    agent.Replay();
  };
  poison();  // the optimizer step writes non-finite weights
  EXPECT_TRUE(std::isnan(agent.QValues(probe)[0]));  // the taken slot
  EXPECT_FALSE(agent.network().layers().back().weights_finite());
  ExpectFlagsMatchWeights(agent, "after poisoned step");
  ExpectQMatchesDenseOracle(agent, probe, "after poisoned step");

  agent.RestoreSnapshot();  // clean over poisoned
  ExpectFlagsMatchWeights(agent, "after clean restore");
  const auto restored_q = agent.QValues(probe);
  ASSERT_EQ(restored_q.size(), clean_q.size());
  EXPECT_EQ(std::memcmp(restored_q.data(), clean_q.data(),
                        clean_q.size() * sizeof(double)),
            0);

  poison();
  agent.SaveSnapshot();
  agent.RestoreSnapshot();  // poisoned over poisoned
  EXPECT_FALSE(agent.network().layers().back().weights_finite());
  ExpectFlagsMatchWeights(agent, "after poisoned restore");
  ExpectQMatchesDenseOracle(agent, probe, "after poisoned restore");
}

// A ReLU maps a NaN pre-activation to 0, so non-finite hidden weights can
// leave every Q-value but the poisoned slot finite, and a replay that
// trains only the other slots reports a finite loss. diverged() must still
// fire, or the trainer never restores its snapshot.
TEST_F(AgentFixture, NonFiniteHiddenWeightsDivergeDespiteAFiniteLoss) {
  DqnConfig config;
  config.batch_size = 4;
  DqnAgent agent(4, codec_, config);
  const auto remember = [&](std::size_t slot, double reward) {
    for (int i = 0; i < 4; ++i) {
      Experience experience;
      experience.features = {0.5, 0.0, 1.0, 0.0};
      experience.taken_slots = {slot};
      experience.reward = reward;
      experience.done = true;
      agent.Remember(std::move(experience));
    }
  };
  remember(codec_.MiniActionSlot({2, 1}),
           std::numeric_limits<double>::infinity());
  agent.Replay();  // the optimizer step writes non-finite weights
  ASSERT_FALSE(agent.network().layers().front().weights_finite());
  ASSERT_EQ(agent.PurgePoisonedExperiences(), 4u);

  remember(codec_.NoOpSlot(0), 1.0);
  ASSERT_TRUE(std::isfinite(agent.Replay()));
  EXPECT_TRUE(agent.diverged());
}

// Trains just enough that the agent's state (weights, optimizer moments,
// epsilon, last loss, replay memory) is all non-trivial before a round trip.
void NudgeAgent(DqnAgent& agent, const fsm::StateCodec& codec) {
  const std::size_t slot = codec.MiniActionSlot({2, 1});
  for (int i = 0; i < 40; ++i) {
    Experience experience;
    experience.features = {0.1 * i, 1.0 - 0.01 * i, 0.5, -0.3};
    experience.taken_slots = {slot};
    experience.reward = (i % 2 == 0) ? 1.0 : -1.0;
    // Full-width successor observation: the replay serializer validates
    // every entry against the agent's widths, so experiences destined for
    // a checkpoint must carry a complete next state even when done.
    experience.next_features = {0.1 * i, 0.9, 0.4, -0.2};
    experience.next_mask =
        std::vector<bool>(codec.mini_action_count(), true);
    experience.done = true;
    agent.Remember(std::move(experience));
  }
  for (int i = 0; i < 30; ++i) agent.Replay();
}

TEST_F(AgentFixture, AgentJsonRoundTripRestoresThePolicyExactly) {
  DqnConfig config;
  config.batch_size = 8;
  config.seed = 31;
  DqnAgent original(4, codec_, config);
  NudgeAgent(original, codec_);

  DqnAgent restored(4, codec_, config);
  restored.LoadJson(original.ToJson());

  EXPECT_DOUBLE_EQ(restored.epsilon(), original.epsilon());
  EXPECT_DOUBLE_EQ(restored.last_loss(), original.last_loss());
  // Replay memory is not carried; a warm-started tenant regenerates
  // experience.
  EXPECT_EQ(restored.replay_size(), 0u);

  const auto mask = AllOn();
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<double> features = {0.05 * trial, -0.1 * trial, 0.2,
                                          0.9};
    EXPECT_EQ(restored.QValues(features), original.QValues(features));
    EXPECT_EQ(restored.SelectAction(features, mask, true),
              original.SelectAction(features, mask, true));
    EXPECT_EQ(restored.GreedyActionFromQ(original.QValues(features), mask),
              original.GreedyActionFromQ(original.QValues(features), mask));
  }
}

TEST_F(AgentFixture, AgentLoadClearsReplayMemory) {
  DqnConfig config;
  config.batch_size = 8;
  DqnAgent original(4, codec_, config);
  NudgeAgent(original, codec_);
  DqnAgent restored(4, codec_, config);
  NudgeAgent(restored, codec_);
  ASSERT_GT(restored.replay_size(), 0u);

  // A restore never mixes old experience with the checkpointed policy.
  restored.LoadJson(original.ToJson());
  EXPECT_EQ(restored.replay_size(), 0u);
}

TEST_F(AgentFixture, AgentLoadRejectsHostileDocumentsUnchanged) {
  DqnConfig config;
  config.batch_size = 8;
  config.seed = 47;
  DqnAgent agent(4, codec_, config);
  NudgeAgent(agent, codec_);
  const std::vector<double> probe = {0.2, 0.4, 0.6, 0.8};
  const std::vector<double> before_q = agent.QValues(probe);
  const double before_epsilon = agent.epsilon();
  const util::JsonValue good = agent.ToJson();

  const util::JsonValue future = json_edit::SetJson(
      good, {"format_version"}, util::JsonValue(std::int64_t{2}));
  EXPECT_THROW(agent.LoadJson(future), util::JsonError);

  const util::JsonValue wrong_width = json_edit::SetJson(
      good, {"feature_width"}, util::JsonValue(std::int64_t{9}));
  EXPECT_THROW(agent.LoadJson(wrong_width), util::JsonError);

  const util::JsonValue epsilon_high = json_edit::SetJson(
      good, {"epsilon"}, util::JsonValue(1.5));
  EXPECT_THROW(agent.LoadJson(epsilon_high), util::JsonError);

  const util::JsonValue epsilon_nan = json_edit::SetJson(
      good, {"epsilon"},
      util::JsonValue(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_THROW(agent.LoadJson(epsilon_nan), util::JsonError);

  const util::JsonValue loss_nan = json_edit::SetJson(
      good, {"last_loss"},
      util::JsonValue(std::numeric_limits<double>::infinity()));
  EXPECT_THROW(agent.LoadJson(loss_nan), util::JsonError);

  // A checkpoint from a differently-shaped home must be rejected before any
  // state is replaced.
  DqnAgent narrow(3, codec_, config);
  EXPECT_THROW(narrow.LoadJson(good), util::JsonError);

  // Every rejection above happened before the commit point: the live
  // policy and exploration schedule are untouched.
  EXPECT_EQ(agent.QValues(probe), before_q);
  EXPECT_DOUBLE_EQ(agent.epsilon(), before_epsilon);

  // And the good document still loads after all those rejections.
  EXPECT_NO_THROW(agent.LoadJson(good));
  EXPECT_EQ(agent.QValues(probe), before_q);
}

// The deployment-path parity: decoding a batched Q-row through the agent
// must equal the agent's own greedy SelectAction.
TEST(GreedyDecode, GreedyDecodeMatchesSelectAction) {
  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  const std::size_t feature_width = 12;
  DqnConfig config;
  config.hidden_units = {16, 16};
  DqnAgent agent(feature_width, home.codec(), config);
  const std::vector<bool> mask(home.codec().mini_action_count(), true);

  util::Rng rng(31);
  neural::Tensor batch(10, feature_width);
  std::vector<std::vector<double>> rows(batch.rows(),
                                        std::vector<double>(feature_width));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (double& x : rows[i]) x = rng.NextGaussian();
    batch.SetRow(i, rows[i]);
  }
  const neural::Tensor q = agent.network().PredictBatch(batch);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const fsm::ActionVector batched =
        agent.GreedyActionFromQ(q.RowVector(i), mask);
    const fsm::ActionVector direct = agent.SelectAction(rows[i], mask, true);
    EXPECT_EQ(batched, direct) << "query " << i;
  }
}

TEST(TrainerIntegration, ImprovesOverRandomPolicyAndKeepsBestSnapshot) {
  sim::TestbedConfig testbed_config;
  testbed_config.benign_anomaly_samples = 1500;
  sim::Testbed testbed(testbed_config);
  spl::SafetyPolicyLearner learner(testbed.home_a(), spl::SplConfig{});
  learner.Learn(testbed.HomeALearningEpisodes(), testbed.BuildTrainingSet());
  const sim::DayTrace natural = testbed.home_b_data().Day(10);

  IoTEnvConfig env_config;
  env_config.decision_interval_minutes = 15;
  IoTEnv env(testbed.home_a(), natural, sim::ThermalConfig{}, &learner,
             env_config);
  DqnConfig dqn_config;
  dqn_config.seed = 11;
  DqnAgent agent(env.feature_width(), testbed.home_a().codec(), dqn_config);

  TrainerConfig trainer_config;
  trainer_config.episodes = 10;
  const TrainResult result = Train(env, agent, trainer_config);
  ASSERT_EQ(result.episode_rewards.size(), 10u);
  // Constrained training must commit zero violations.
  EXPECT_EQ(result.training_violations, 0u);
  EXPECT_EQ(result.greedy_violations, 0u);
  // The restored best policy is at least as good as the mean training
  // episode (it was selected greedily).
  double mean = 0.0;
  for (double r : result.episode_rewards) mean += r;
  mean /= static_cast<double>(result.episode_rewards.size());
  EXPECT_GE(result.greedy_reward, mean - 50.0);
  EXPECT_TRUE(result.greedy_episode.IsComplete());
}

}  // namespace
}  // namespace jarvis::rl
