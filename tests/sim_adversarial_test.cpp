// Tests for the benign-anomaly generator (SIMADL stand-in) and the
// security-violation generator (Soteria/IoTGuard stand-in).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "fsm/device_library.h"
#include "util/check.h"
#include "sim/anomaly.h"
#include "sim/attack.h"
#include "sim/testbed.h"

namespace jarvis::sim {
namespace {

class AdversarialFixture : public ::testing::Test {
 protected:
  AdversarialFixture() : home_(fsm::BuildFullHome()) {}
  fsm::EnvironmentFsm home_;
};

TEST_F(AdversarialFixture, SupportedKindsInFullHome) {
  AnomalyGenerator generator(home_, 1);
  const auto kinds = generator.SupportedKinds();
  EXPECT_EQ(kinds.size(), 6u);  // all archetypes expressible
}

TEST_F(AdversarialFixture, SupportedKindsInSmallHome) {
  const fsm::EnvironmentFsm small(fsm::ExampleHomeDevices());
  AnomalyGenerator generator(small, 1);
  const auto kinds = generator.SupportedKinds();
  // Example home has light but no fridge/oven/tv/washer.
  std::set<AnomalyKind> set(kinds.begin(), kinds.end());
  EXPECT_TRUE(set.count(AnomalyKind::kOutOfScheduleLight));
  EXPECT_TRUE(set.count(AnomalyKind::kDoubleToggle));
  EXPECT_FALSE(set.count(AnomalyKind::kFridgeDoorLeftOpen));
}

TEST_F(AdversarialFixture, GeneratedAnomaliesAreWellFormed) {
  AnomalyGenerator generator(home_, 2);
  fsm::StateVector state(home_.device_count(), 0);
  for (int i = 0; i < 100; ++i) {
    const AnomalyInstance instance = generator.Generate(state);
    EXPECT_GE(instance.minute, 0);
    EXPECT_LT(instance.minute, util::kMinutesPerDay);
    home_.ValidateAction(instance.action);
    int touched = 0;
    for (fsm::ActionIndex a : instance.action) {
      touched += (a != fsm::kNoAction) ? 1 : 0;
    }
    EXPECT_EQ(touched, 1) << "benign anomalies touch one device";
    EXPECT_FALSE(instance.description.empty());
  }
}

TEST_F(AdversarialFixture, AnomalyMatchesItsArchetypePredicate) {
  AnomalyGenerator generator(home_, 3);
  fsm::StateVector state(home_.device_count(), 0);
  for (int i = 0; i < 200; ++i) {
    const AnomalyInstance instance = generator.Generate(state);
    for (std::size_t d = 0; d < instance.action.size(); ++d) {
      if (instance.action[d] == fsm::kNoAction) continue;
      const auto& device = home_.devices()[d];
      EXPECT_TRUE(generator.LooksLikeBenignArchetype(
          device.label(), device.action_name(instance.action[d]),
          instance.minute))
          << device.label() << " at " << instance.minute;
    }
  }
}

TEST_F(AdversarialFixture, TrainingSetCompositionAndLabels) {
  AnomalyGenerator generator(home_, 4);
  std::vector<fsm::TriggerAction> normal;
  fsm::StateVector state(home_.device_count(), 0);
  fsm::ActionVector act(home_.device_count(), fsm::kNoAction);
  act[2] = 1;  // light power_on
  for (int i = 0; i < 50; ++i) normal.push_back({state, act, 400 + i});

  const auto samples = generator.BuildTrainingSet(normal, 300, 100);
  EXPECT_EQ(samples.size(), 50u + 300u + 100u);
  std::size_t positives = 0;
  for (const auto& sample : samples) positives += sample.benign_anomaly;
  EXPECT_EQ(positives, 300u);
  EXPECT_THROW(generator.BuildTrainingSet({}, 10), std::invalid_argument);
}

TEST_F(AdversarialFixture, BackgroundNegativesAvoidArchetypes) {
  AnomalyGenerator generator(home_, 5);
  std::vector<fsm::TriggerAction> normal;
  fsm::StateVector state(home_.device_count(), 0);
  fsm::ActionVector act(home_.device_count(), fsm::kNoAction);
  act[2] = 1;
  normal.push_back({state, act, 400});
  const auto samples = generator.BuildTrainingSet(normal, 50, 200);
  for (const auto& sample : samples) {
    if (sample.benign_anomaly) continue;
    for (std::size_t d = 0; d < sample.ta.action.size(); ++d) {
      if (sample.ta.action[d] == fsm::kNoAction) continue;
      const auto& device = home_.devices()[d];
      // The original normal sample is allowed; background negatives only.
      if (sample.ta.minute_of_day == 400 && d == 2) continue;
      EXPECT_FALSE(generator.LooksLikeBenignArchetype(
          device.label(), device.action_name(sample.ta.action[d]),
          sample.ta.minute_of_day));
    }
  }
}

TEST_F(AdversarialFixture, ViolationCountsMatchPaper) {
  AttackGenerator generator(home_, 6);
  const auto violations = generator.GenerateAll();
  ASSERT_EQ(violations.size(), 214u);
  std::map<ViolationType, int> counts;
  for (const auto& violation : violations) ++counts[violation.type];
  EXPECT_EQ(counts[ViolationType::kTriggerActionSafety], 114);
  EXPECT_EQ(counts[ViolationType::kAccessControl], 40);
  EXPECT_EQ(counts[ViolationType::kConflictRace], 40);
  EXPECT_EQ(counts[ViolationType::kMaliciousApp], 10);
  EXPECT_EQ(counts[ViolationType::kInsider], 10);
}

TEST_F(AdversarialFixture, ViolationsArePairwiseDistinct) {
  AttackGenerator generator(home_, 7);
  const auto violations = generator.GenerateAll();
  std::set<std::pair<std::uint64_t, std::vector<int>>> seen;
  for (const auto& violation : violations) {
    home_.ValidateState(violation.state);
    home_.ValidateAction(violation.action);
    EXPECT_GE(violation.minute, 0);
    EXPECT_LT(violation.minute, util::kMinutesPerDay);
    const auto key = std::make_pair(
        home_.codec().Encode(violation.state),
        std::vector<int>(violation.action.begin(), violation.action.end()));
    EXPECT_TRUE(seen.insert(key).second) << violation.description;
  }
}

TEST_F(AdversarialFixture, CustomCountsRespected) {
  AttackGenerator generator(home_, 8);
  ViolationCounts counts{10, 4, 4, 2, 2};
  const auto violations = generator.GenerateAll(counts);
  EXPECT_EQ(violations.size(), static_cast<std::size_t>(counts.total()));
}

TEST_F(AdversarialFixture, RequiresFullHome) {
  const fsm::EnvironmentFsm small(fsm::ExampleHomeDevices());
  EXPECT_THROW(AttackGenerator(small, 1), util::CheckError);
}

TEST_F(AdversarialFixture, InjectionReplacesExactlyOneStep) {
  // Build a quiet base episode.
  fsm::StateVector initial(home_.device_count(), 0);
  fsm::Episode base({util::kMinutesPerDay, 1}, util::SimTime(0), initial);
  for (int m = 0; m < util::kMinutesPerDay; ++m) {
    base.Record(util::SimTime(m), initial,
                fsm::ActionVector(home_.device_count(), fsm::kNoAction));
  }
  AttackGenerator generator(home_, 9);
  const auto violations = generator.GenerateAll({2, 1, 1, 1, 1});
  for (const auto& violation : violations) {
    const auto injected =
        AttackGenerator::InjectIntoEpisode(home_, base, violation);
    ASSERT_EQ(injected.size(), base.size());
    int changed = 0;
    for (std::size_t m = 0; m < injected.size(); ++m) {
      if (injected.steps()[m].action != base.steps()[m].action) {
        ++changed;
        EXPECT_EQ(static_cast<int>(m), violation.minute);
        EXPECT_EQ(injected.steps()[m].action, violation.action);
        EXPECT_EQ(injected.steps()[m].state, violation.state);
      }
    }
    EXPECT_EQ(changed, 1);
  }
}

TEST_F(AdversarialFixture, NamesAreHuman) {
  EXPECT_EQ(ViolationTypeName(ViolationType::kInsider), "insider attack");
}

}  // namespace
}  // namespace jarvis::sim
