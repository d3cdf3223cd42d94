#include <gtest/gtest.h>

#include "util/check.h"

#include "fsm/device_library.h"
#include "json_edit.h"
#include "neural/serialize.h"
#include "sim/testbed.h"
#include "spl/ann_filter.h"
#include "spl/features.h"
#include "spl/learner.h"
#include "spl/safe_table.h"

namespace jarvis::spl {
namespace {

TEST(FeatureEncoder, WidthAndLayout) {
  const fsm::EnvironmentFsm home(fsm::ExampleHomeDevices());
  const FeatureEncoder encoder(home);
  EXPECT_EQ(encoder.feature_width(),
            home.codec().one_hot_width() + home.codec().mini_action_count() + 2);
  const fsm::StateVector state = {0, 0, 0, 2, 2};
  const fsm::MiniAction mini{2, 1};
  const auto features = encoder.Encode(state, mini, 720);
  EXPECT_EQ(features.size(), encoder.feature_width());
  // Exactly one action bit set.
  double action_bits = 0.0;
  for (std::size_t i = home.codec().one_hot_width();
       i < features.size() - 2; ++i) {
    action_bits += features[i];
  }
  EXPECT_DOUBLE_EQ(action_bits, 1.0);
  // Time features at noon: sin ~ 0, cos ~ -1.
  EXPECT_NEAR(features[features.size() - 2], 0.0, 1e-9);
  EXPECT_NEAR(features[features.size() - 1], -1.0, 1e-9);
}

TEST(FeatureEncoder, SplitActionSkipsNoOps) {
  fsm::ActionVector action = {fsm::kNoAction, 1, fsm::kNoAction, 0, fsm::kNoAction};
  const auto minis = FeatureEncoder::SplitAction(action);
  ASSERT_EQ(minis.size(), 2u);
  EXPECT_EQ(minis[0].device, 1);
  EXPECT_EQ(minis[0].action, 1);
  EXPECT_EQ(minis[1].device, 3);
  EXPECT_EQ(minis[1].action, 0);
  EXPECT_TRUE(FeatureEncoder::SplitAction(
                  fsm::ActionVector(5, fsm::kNoAction))
                  .empty());
}

class SafeTableFixture : public ::testing::Test {
 protected:
  SafeTableFixture() : home_(fsm::ExampleHomeDevices()) {}

  fsm::ActionVector LightOn() const {
    fsm::ActionVector action(home_.device_count(), fsm::kNoAction);
    action[2] = *home_.device(2).FindAction("power_on");
    return action;
  }

  fsm::EnvironmentFsm home_;
  fsm::StateVector state_ = {0, 0, 0, 2, 2};
};

TEST_F(SafeTableFixture, NothingAdmittedBeforeFinalize) {
  SafeTransitionTable table(home_, KeyMode::kFactoredContext, 0);
  table.Observe(state_, LightOn(), 400);
  EXPECT_FALSE(table.IsSafe(state_, LightOn(), 400));
  table.Finalize();
  EXPECT_TRUE(table.IsSafe(state_, LightOn(), 400));
}

TEST_F(SafeTableFixture, NoOpAlwaysSafeAfterFinalize) {
  SafeTransitionTable table(home_, KeyMode::kFactoredContext, 0);
  table.Finalize();
  EXPECT_TRUE(table.IsSafe(state_, fsm::ActionVector(5, fsm::kNoAction), 0));
  EXPECT_TRUE(table.IsMiniActionSafe(state_, {0, fsm::kNoAction}, 0));
}

TEST_F(SafeTableFixture, ThresholdGatesAdmission) {
  SafeTransitionTable table(home_, KeyMode::kFactoredContext, 2);
  table.Observe(state_, LightOn(), 400);
  table.Observe(state_, LightOn(), 401);
  table.Finalize();
  // Count 2 is not > 2.
  EXPECT_FALSE(table.IsSafe(state_, LightOn(), 400));
  table.Observe(state_, LightOn(), 402);
  table.Finalize();
  EXPECT_TRUE(table.IsSafe(state_, LightOn(), 400));
  EXPECT_THROW(SafeTransitionTable(home_, KeyMode::kFactoredContext, -1),
               util::CheckError);
}

TEST_F(SafeTableFixture, TimeBucketsSeparateDayParts) {
  SafeTransitionTable table(home_, KeyMode::kFactoredContext, 0);
  table.Observe(state_, LightOn(), 7 * 60);  // bucket [6,9)
  table.Finalize();
  EXPECT_TRUE(table.IsSafe(state_, LightOn(), 8 * 60));   // same bucket
  EXPECT_FALSE(table.IsSafe(state_, LightOn(), 3 * 60));  // night bucket
  EXPECT_FALSE(table.IsSafe(state_, LightOn(), 12 * 60));
}

TEST_F(SafeTableFixture, SecurityContextSeparatesStates) {
  SafeTransitionTable table(home_, KeyMode::kFactoredContext, 0);
  // Unlock observed with door sensor reporting an authorized user.
  fsm::StateVector arrival_state = state_;
  arrival_state[1] = *home_.device(1).FindState("auth_user");
  fsm::ActionVector unlock(home_.device_count(), fsm::kNoAction);
  unlock[0] = *home_.device(0).FindAction("unlock");
  table.Observe(arrival_state, unlock, 17 * 60);
  table.Finalize();
  EXPECT_TRUE(table.IsSafe(arrival_state, unlock, 17 * 60));
  // Same action, door sensing (nobody verified): different context key.
  EXPECT_FALSE(table.IsSafe(state_, unlock, 17 * 60));
  // Unauthorized user at the door: also different.
  fsm::StateVector unauth_state = state_;
  unauth_state[1] = *home_.device(1).FindState("unauth_user");
  EXPECT_FALSE(table.IsSafe(unauth_state, unlock, 17 * 60));
}

TEST_F(SafeTableFixture, FactoredModeGeneralizesOverIrrelevantDevices) {
  SafeTransitionTable table(home_, KeyMode::kFactoredContext, 0);
  table.Observe(state_, LightOn(), 400);
  table.Finalize();
  // The thermostat state is not part of the light's safety context.
  fsm::StateVector different = state_;
  different[3] = *home_.device(3).FindState("heat");
  EXPECT_TRUE(table.IsSafe(different, LightOn(), 400));
}

TEST_F(SafeTableFixture, ExactModeDoesNotGeneralize) {
  SafeTransitionTable table(home_, KeyMode::kExactState, 0);
  table.Observe(state_, LightOn(), 400);
  table.Finalize();
  EXPECT_TRUE(table.IsSafe(state_, LightOn(), 400));
  fsm::StateVector different = state_;
  different[3] = *home_.device(3).FindState("heat");
  EXPECT_FALSE(table.IsSafe(different, LightOn(), 400))
      << "exact mode must key on the full composite state";
}

TEST_F(SafeTableFixture, UnsafeMiniActionsPinpointOffenders) {
  SafeTransitionTable table(home_, KeyMode::kFactoredContext, 0);
  table.Observe(state_, LightOn(), 400);
  table.Finalize();
  fsm::ActionVector mixed = LightOn();
  mixed[4] = *home_.device(4).FindAction("power_off");  // never observed
  const auto unsafe = table.UnsafeMiniActions(state_, mixed, 400);
  ASSERT_EQ(unsafe.size(), 1u);
  EXPECT_EQ(unsafe[0].device, 4);
}

// --- ANN filter ---------------------------------------------------------

class AnnFixture : public ::testing::Test {
 protected:
  AnnFixture() : home_(fsm::BuildFullHome()) {}

  // A small but separable labeled set: daytime light use is normal,
  // small-hours TV is a benign anomaly.
  std::vector<sim::LabeledSample> MakeSeparableSet() const {
    std::vector<sim::LabeledSample> samples;
    fsm::StateVector state(home_.device_count(), 0);
    util::Rng rng(5);
    for (int i = 0; i < 300; ++i) {
      fsm::ActionVector normal(home_.device_count(), fsm::kNoAction);
      normal[2] = 1;  // light power_on
      samples.push_back(
          {{state, normal,
            static_cast<int>(rng.NextInt(17 * 60, 22 * 60))},
           false,
           sim::AnomalyKind::kOutOfScheduleLight});
      fsm::ActionVector anomaly(home_.device_count(), fsm::kNoAction);
      anomaly[7] = 0;  // tv power_on
      samples.push_back({{state, anomaly,
                          static_cast<int>(rng.NextInt(2 * 60, 4 * 60))},
                         true,
                         sim::AnomalyKind::kTvLeftOnShort});
    }
    return samples;
  }

  fsm::EnvironmentFsm home_;
};

TEST_F(AnnFixture, LearnsSeparableBenignPattern) {
  AnnFilter filter(home_, AnnFilterConfig{}, 3);
  EXPECT_FALSE(filter.trained());
  const auto samples = MakeSeparableSet();
  filter.Train(samples);
  EXPECT_TRUE(filter.trained());
  EXPECT_GT(filter.Evaluate(samples), 0.97);

  fsm::StateVector state(home_.device_count(), 0);
  EXPECT_GT(filter.BenignScore(state, {7, 0}, 3 * 60), 0.5);
  EXPECT_LT(filter.BenignScore(state, {2, 1}, 19 * 60), 0.5);
}

TEST_F(AnnFixture, JointActionScoreIsMinOverComponents) {
  AnnFilter filter(home_, AnnFilterConfig{}, 3);
  filter.Train(MakeSeparableSet());
  fsm::StateVector state(home_.device_count(), 0);
  fsm::ActionVector joint(home_.device_count(), fsm::kNoAction);
  joint[7] = 0;  // benign-looking
  joint[2] = 1;  // normal-looking (low benign score)
  fsm::TriggerAction ta{state, joint, 3 * 60};
  const double joint_score = filter.BenignScore(ta);
  const double tv_score = filter.BenignScore(state, {7, 0}, 3 * 60);
  const double light_score = filter.BenignScore(state, {2, 1}, 3 * 60);
  EXPECT_DOUBLE_EQ(joint_score, std::min(tv_score, light_score));
  // Empty action scores 0.
  fsm::TriggerAction empty{state,
                           fsm::ActionVector(home_.device_count(),
                                             fsm::kNoAction),
                           0};
  EXPECT_DOUBLE_EQ(filter.BenignScore(empty), 0.0);
}

TEST_F(AnnFixture, TrainRejectsEmpty) {
  AnnFilter filter(home_, AnnFilterConfig{}, 3);
  EXPECT_THROW(filter.Train({}), std::invalid_argument);
}

// --- Full SPL integration -------------------------------------------—---

class SplIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::TestbedConfig config;
    config.benign_anomaly_samples = 3000;
    testbed_ = new sim::Testbed(config);
    learner_ = new SafetyPolicyLearner(testbed_->home_a(), SplConfig{});
    learner_->Learn(testbed_->HomeALearningEpisodes(),
                    testbed_->BuildTrainingSet());
  }
  static void TearDownTestSuite() {
    delete learner_;
    delete testbed_;
    learner_ = nullptr;
    testbed_ = nullptr;
  }

  static sim::Testbed* testbed_;
  static SafetyPolicyLearner* learner_;
};

sim::Testbed* SplIntegration::testbed_ = nullptr;
SafetyPolicyLearner* SplIntegration::learner_ = nullptr;

TEST_F(SplIntegration, LearningPopulatesTable) {
  EXPECT_TRUE(learner_->learned());
  EXPECT_GT(learner_->table().admitted_key_count(), 20u);
}

TEST_F(SplIntegration, NaturalBehaviorAuditsClean) {
  // A fresh (non-learning) day of natural behavior should raise no
  // violations — at most a handful of benign-anomaly flags.
  sim::ResidentSimulator resident(testbed_->home_a(), sim::ThermalConfig{},
                                  777);
  const auto generator = testbed_->home_a_generator();
  // Day 30: not in the learning set (learning days are multiples of 52).
  const auto trace = resident.SimulateDay(generator.Generate(30),
                                          resident.OvernightState(), 21.0);
  const auto audit = learner_->AuditEpisode(trace.episode);
  EXPECT_GT(audit.transitions_checked, 10u);
  EXPECT_LE(audit.violations, audit.transitions_checked / 10)
      << "false-positive violations on benign behavior";
}

TEST_F(SplIntegration, AllViolationTypesDetected) {
  const auto violations = testbed_->BuildViolations();
  std::size_t detected = 0;
  for (const auto& violation : violations) {
    const auto verdict = learner_->Classify(violation.state, violation.action,
                                            violation.minute);
    if (verdict == Verdict::kViolation) ++detected;
  }
  // Paper: 100% of the 214 violations flagged.
  EXPECT_EQ(detected, violations.size());
}

TEST_F(SplIntegration, BenignAnomaliesFiltered) {
  sim::AnomalyGenerator generator(testbed_->home_a(), 31337);
  // Benign anomalies are human errors: evaluate them in a someone-is-home
  // context (lock unlocked), matching how they are labeled.
  fsm::StateVector state(testbed_->home_a().device_count(), 0);
  state[0] = *testbed_->home_a().device(0).FindState("unlocked");
  int benign = 0, total = 0;
  for (int i = 0; i < 200; ++i) {
    const auto instance = generator.Generate(state);
    const auto verdict =
        learner_->Classify(state, instance.action, instance.minute);
    ++total;
    if (verdict != Verdict::kViolation) ++benign;
  }
  // Paper: 99.2% of benign anomalies filtered; we require > 90% here to
  // keep the unit test robust to seeds.
  EXPECT_GT(static_cast<double>(benign) / total, 0.9);
}

TEST_F(SplIntegration, ClassifyBeforeLearnThrows) {
  SafetyPolicyLearner fresh(testbed_->home_a(), SplConfig{});
  fsm::StateVector state(testbed_->home_a().device_count(), 0);
  EXPECT_THROW(fresh.ClassifyMini(state, {0, 0}, 0), std::logic_error);
}

TEST_F(SplIntegration, LearnValidatesInputs) {
  SafetyPolicyLearner fresh(testbed_->home_a(), SplConfig{});
  EXPECT_THROW(fresh.Learn({}, testbed_->BuildTrainingSet()),
               std::invalid_argument);
  EXPECT_THROW(fresh.Learn(testbed_->HomeALearningEpisodes(), {}),
               std::invalid_argument);
}

TEST_F(SplIntegration, GappyEpisodesSkippedNotFatal) {
  // A degraded stream hands the learner empty and truncated episodes among
  // the good ones; they are skipped and counted, and learning proceeds.
  auto episodes = testbed_->HomeALearningEpisodes();
  const std::size_t good = episodes.size();
  episodes.emplace_back(episodes.front().config(), util::SimTime(0),
                        episodes.front().initial_state());  // empty

  SplConfig config;
  config.min_episode_fraction = 0.5;
  SafetyPolicyLearner tolerant(testbed_->home_a(), config);
  obs::Registry registry;
  tolerant.SetMetrics(&registry);
  tolerant.Learn(episodes, testbed_->BuildTrainingSet());

  EXPECT_TRUE(tolerant.learned());
  const obs::MetricsSnapshot metrics = registry.TakeSnapshot();
  EXPECT_EQ(metrics.CounterValue("spl.learner.episodes_offered"), good + 1);
  EXPECT_EQ(metrics.CounterValue("spl.learner.episodes_used"), good);
  EXPECT_EQ(metrics.CounterValue("spl.learner.episodes_skipped"), 1u);
  EXPECT_GT(metrics.CounterValue("spl.learner.observations"), 0u);
}

TEST_F(SplIntegration, MinEpisodeFractionSkipsTruncatedEpisodes) {
  auto episodes = testbed_->HomeALearningEpisodes();
  // A truncated episode: a tenth of the configured period.
  fsm::Episode partial(episodes.front().config(), util::SimTime(0),
                       episodes.front().initial_state());
  const int steps = episodes.front().config().StepsPerEpisode() / 10;
  fsm::StateVector state = partial.initial_state();
  const fsm::ActionVector noop(testbed_->home_a().device_count(),
                               fsm::kNoAction);
  for (int i = 0; i < steps; ++i) {
    partial.Record(util::SimTime(i), state, noop);
  }
  episodes.push_back(partial);

  SplConfig config;
  config.min_episode_fraction = 0.5;
  SafetyPolicyLearner tolerant(testbed_->home_a(), config);
  obs::Registry tolerant_registry;
  tolerant.SetMetrics(&tolerant_registry);
  tolerant.Learn(episodes, testbed_->BuildTrainingSet());
  const obs::MetricsSnapshot strict = tolerant_registry.TakeSnapshot();
  EXPECT_EQ(strict.CounterValue("spl.learner.episodes_skipped"), 1u);

  // With no minimum, the truncated episode contributes.
  SafetyPolicyLearner lax(testbed_->home_a(), SplConfig{});
  obs::Registry lax_registry;
  lax.SetMetrics(&lax_registry);
  lax.Learn(episodes, testbed_->BuildTrainingSet());
  const obs::MetricsSnapshot loose = lax_registry.TakeSnapshot();
  EXPECT_EQ(loose.CounterValue("spl.learner.episodes_skipped"), 0u);
  EXPECT_EQ(loose.CounterValue("spl.learner.episodes_used"),
            strict.CounterValue("spl.learner.episodes_used") + 1);
}

TEST_F(SplIntegration, AllEpisodesGappyAborts) {
  const fsm::Episode shape = testbed_->HomeALearningEpisodes().front();
  std::vector<fsm::Episode> empties;
  empties.emplace_back(shape.config(), util::SimTime(0),
                       shape.initial_state());
  SafetyPolicyLearner fresh(testbed_->home_a(), SplConfig{});
  EXPECT_THROW(fresh.Learn(empties, testbed_->BuildTrainingSet()),
               std::invalid_argument);
}

TEST_F(SplIntegration, AnnDisabledModeTreatsAnomaliesAsViolations) {
  SplConfig config;
  config.use_ann_filter = false;
  SafetyPolicyLearner strict(testbed_->home_a(), config);
  strict.Learn(testbed_->HomeALearningEpisodes(), {});
  sim::AnomalyGenerator generator(testbed_->home_a(), 123);
  fsm::StateVector state(testbed_->home_a().device_count(), 0);
  int violations = 0;
  for (int i = 0; i < 50; ++i) {
    const auto instance = generator.Generate(state);
    if (strict.Classify(state, instance.action, instance.minute) ==
        Verdict::kViolation) {
      ++violations;
    }
  }
  // Without the ANN, off-whitelist benign anomalies are all flagged.
  EXPECT_GT(violations, 40);
}

// --- Serialized-state restore hardening ---------------------------------
//
// Checkpoint payloads are untrusted input (DESIGN.md §14): a whitelist
// document corrupted at rest — or crafted — must be REJECTED whole, never
// partially applied, and a rejected load must leave the previous
// (fail-safe) state untouched.

class SafeTableRestoreFixture : public SafeTableFixture {
 protected:
  // A small finalized table and its serialized form.
  util::JsonValue LearnedDoc() {
    SafeTransitionTable table(home_, KeyMode::kFactoredContext, 0);
    table.Observe(state_, LightOn(), 400);
    table.Finalize();
    return table.ToJson();
  }

  SafeTransitionTable FreshTable() {
    return SafeTransitionTable(home_, KeyMode::kFactoredContext, 0);
  }
};

TEST_F(SafeTableRestoreFixture, JsonRoundTripPreservesAdmissions) {
  SafeTransitionTable restored = FreshTable();
  restored.LoadJson(LearnedDoc());
  EXPECT_TRUE(restored.IsSafe(state_, LightOn(), 400));
  EXPECT_FALSE(restored.IsSafe(state_, LightOn(), 3 * 60));
  // Second-generation serialization is stable.
  EXPECT_EQ(restored.ToJson().Dump(), LearnedDoc().Dump());
}

TEST_F(SafeTableRestoreFixture, RejectsMalformedKeyStrings) {
  for (const char* hostile : {"123abc", "-1", "", " 42", "0x10",
                              "99999999999999999999999999"}) {
    const util::JsonValue doc = json_edit::SetJson(
        LearnedDoc(), {"counts", 0u, 0u}, util::JsonValue(hostile));
    SafeTransitionTable table = FreshTable();
    EXPECT_THROW(table.LoadJson(doc), util::CheckError) << hostile;
    // The rejected load left the table unfinalized: deny everything.
    EXPECT_FALSE(table.IsSafe(state_, LightOn(), 400)) << hostile;
  }
}

TEST_F(SafeTableRestoreFixture, RejectsHostileCounts) {
  const util::JsonValue hostile_counts[] = {
      util::JsonValue(-3),            // negative
      util::JsonValue(1.5),           // fractional
      util::JsonValue(4.0e9),         // exceeds int
      util::JsonValue("12"),          // wrong type
  };
  for (const util::JsonValue& count : hostile_counts) {
    const util::JsonValue doc =
        json_edit::SetJson(LearnedDoc(), {"counts", 0u, 1u}, count);
    SafeTransitionTable table = FreshTable();
    EXPECT_ANY_THROW(table.LoadJson(doc)) << count.Dump();
    EXPECT_FALSE(table.IsSafe(state_, LightOn(), 400));
  }
}

TEST_F(SafeTableRestoreFixture, RejectsDuplicateKeys) {
  // Duplicate count keys would make the admitted set depend on which entry
  // "wins" — attacker-steerable ambiguity.
  const util::JsonValue learned = LearnedDoc();
  const util::JsonValue doc = json_edit::AppendJson(
      learned, {"counts"}, learned.At("counts").AsArray()[0]);
  EXPECT_THROW(FreshTable().LoadJson(doc), util::CheckError);
}

TEST_F(SafeTableRestoreFixture, RejectsConfigMismatches) {
  // A document for another key mode or threshold describes a different
  // safety contract; silently adopting it would mislabel every key.
  SafeTransitionTable exact(home_, KeyMode::kExactState, 0);
  exact.Observe(state_, LightOn(), 400);
  exact.Finalize();
  EXPECT_THROW(FreshTable().LoadJson(exact.ToJson()), util::CheckError);

  SafeTransitionTable strict(home_, KeyMode::kFactoredContext, 2);
  EXPECT_THROW(strict.LoadJson(LearnedDoc()), util::CheckError);

  const util::JsonValue doc =
      json_edit::SetJson(LearnedDoc(), {"mode"}, util::JsonValue("quantum"));
  EXPECT_THROW(FreshTable().LoadJson(doc), util::CheckError);
}

TEST_F(SafeTableRestoreFixture, RejectsStructurallyBrokenEntries) {
  const util::JsonValue triple = json_edit::AppendJson(
      LearnedDoc(), {"counts", 0u}, util::JsonValue(1));
  EXPECT_THROW(FreshTable().LoadJson(triple), util::CheckError);

  util::JsonObject without_counts = LearnedDoc().AsObject();
  without_counts.erase("counts");
  const util::JsonValue missing(std::move(without_counts));
  EXPECT_THROW(FreshTable().LoadJson(missing), util::JsonError);
}

TEST_F(SafeTableRestoreFixture, RejectedLoadLeavesPreviousStateIntact) {
  // Load a valid document, then a hostile one: the table must keep serving
  // the earlier whitelist (staged-commit contract), not end up half-wiped.
  SafeTransitionTable table = FreshTable();
  table.LoadJson(LearnedDoc());
  ASSERT_TRUE(table.IsSafe(state_, LightOn(), 400));

  const util::JsonValue hostile = json_edit::SetJson(
      LearnedDoc(), {"counts", 0u, 0u}, util::JsonValue("not-a-key"));
  EXPECT_THROW(table.LoadJson(hostile), util::CheckError);
  EXPECT_TRUE(table.IsSafe(state_, LightOn(), 400))
      << "rejected load clobbered the previous whitelist";
}

TEST_F(SplIntegration, LearnerJsonRoundTripClassifiesIdentically) {
  SafetyPolicyLearner restored(testbed_->home_a(), SplConfig{});
  restored.LoadJsonString(learner_->ToJsonString());
  ASSERT_TRUE(restored.learned());
  // Same verdict on every probe — whitelist AND ANN survived bit-for-bit.
  sim::AnomalyGenerator generator(testbed_->home_a(), 2718);
  fsm::StateVector state(testbed_->home_a().device_count(), 0);
  for (int i = 0; i < 50; ++i) {
    const auto instance = generator.Generate(state);
    EXPECT_EQ(restored.Classify(state, instance.action, instance.minute),
              learner_->Classify(state, instance.action, instance.minute));
  }
}

TEST_F(SplIntegration, RejectedRestoreLeavesLearnerDenying) {
  // Fail-safe ordering: learned_ drops before anything is touched, so a
  // document that passes the table/filter stages but fails later leaves
  // the learner refusing to classify — the deny path — rather than serving
  // a half-restored policy.
  SafetyPolicyLearner victim(testbed_->home_a(), SplConfig{});
  victim.LoadJsonString(learner_->ToJsonString());
  ASSERT_TRUE(victim.learned());

  const util::JsonValue hostile = json_edit::SetJson(
      learner_->ToJson(), {"learned"}, util::JsonValue(-3));
  EXPECT_THROW(victim.LoadJson(hostile), util::JsonError);
  EXPECT_FALSE(victim.learned());
  fsm::StateVector state(testbed_->home_a().device_count(), 0);
  EXPECT_THROW(victim.ClassifyMini(state, {0, 0}, 0), std::logic_error);
}

TEST_F(SplIntegration, RestoreIgnoresAStatsObject) {
  // Older checkpoints carry a "stats" object beside the policies; LoadJson
  // never looks it up, so they still restore.
  EXPECT_EQ(learner_->ToJson().AsObject().count("stats"), 0u);
  util::JsonObject doc = learner_->ToJson().AsObject();
  util::JsonObject stats;
  stats["episodes_offered"] = util::JsonValue(std::int64_t{3});
  stats["episodes_used"] = util::JsonValue(std::int64_t{3});
  stats["episodes_skipped"] = util::JsonValue(std::int64_t{0});
  stats["observations"] = util::JsonValue(std::int64_t{120});
  stats["filtered_benign"] = util::JsonValue(std::int64_t{4});
  doc["stats"] = util::JsonValue(std::move(stats));

  SafetyPolicyLearner restored(testbed_->home_a(), SplConfig{});
  restored.LoadJson(util::JsonValue(std::move(doc)));
  ASSERT_TRUE(restored.learned());
  EXPECT_EQ(restored.ToJsonString(), learner_->ToJsonString());
}

TEST_F(SplIntegration, RestoreRejectsForeignAnnTopology) {
  // A filter document whose output head is not the single benign-score
  // sigmoid is structurally foreign (e.g. a Q-network pasted into an SPL
  // checkpoint): right input width, wrong output width — rejected, and the
  // learner stays in the deny path.
  const FeatureEncoder encoder(testbed_->home_a());
  neural::Network foreign(
      encoder.feature_width(),
      {{4, neural::Activation::kRelu}, {2, neural::Activation::kSigmoid}},
      neural::Loss::kBinaryCrossEntropy,
      std::make_unique<neural::Sgd>(0.01), util::Rng(1));
  const util::JsonValue doc = json_edit::SetJson(
      learner_->ToJson(), {"filter", "network"}, neural::ToJson(foreign));
  SafetyPolicyLearner victim(testbed_->home_a(), SplConfig{});
  EXPECT_THROW(victim.LoadJson(doc), std::invalid_argument);
  EXPECT_FALSE(victim.learned());
}

TEST(Verdicts, Names) {
  EXPECT_EQ(VerdictName(Verdict::kSafe), "safe");
  EXPECT_EQ(VerdictName(Verdict::kBenignAnomaly), "benign-anomaly");
  EXPECT_EQ(VerdictName(Verdict::kViolation), "violation");
}

}  // namespace
}  // namespace jarvis::spl
