#include "fsm/episode.h"

#include <gtest/gtest.h>

#include "util/check.h"

#include "fsm/device_library.h"

namespace jarvis::fsm {
namespace {

EpisodeConfig MinuteDay() { return {util::kMinutesPerDay, 1}; }

TEST(EpisodeConfig, StepsPerEpisodeCeils) {
  EXPECT_EQ(MinuteDay().StepsPerEpisode(), 1440);
  EXPECT_EQ((EpisodeConfig{60, 1}).StepsPerEpisode(), 60);
  EXPECT_EQ((EpisodeConfig{61, 2}).StepsPerEpisode(), 31);  // ceil(61/2)
  EXPECT_EQ((EpisodeConfig{60, 15}).StepsPerEpisode(), 4);
}

TEST(Episode, RecordsUntilComplete) {
  const EnvironmentFsm fsm(ExampleHomeDevices());
  const StateVector initial = {0, 0, 0, 2, 2};
  Episode episode({3, 1}, util::SimTime(0), initial);
  EXPECT_FALSE(episode.IsComplete());
  for (int i = 0; i < 3; ++i) {
    episode.Record(util::SimTime(i), initial, ActionVector(5, kNoAction));
  }
  EXPECT_TRUE(episode.IsComplete());
  EXPECT_EQ(episode.size(), 3u);
  EXPECT_THROW(
      episode.Record(util::SimTime(3), initial, ActionVector(5, kNoAction)),
      util::CheckError);
}

TEST(Episode, ValidatesConfig) {
  const StateVector initial = {0};
  EXPECT_THROW(Episode({0, 1}, util::SimTime(0), initial),
               util::CheckError);
  EXPECT_THROW(Episode({10, 0}, util::SimTime(0), initial),
               util::CheckError);
  EXPECT_THROW(Episode({5, 10}, util::SimTime(0), initial),
               util::CheckError);
}

TEST(Episode, FinalStateAppliesLastAction) {
  const EnvironmentFsm fsm(ExampleHomeDevices());
  const StateVector initial = {0, 0, 0, 2, 2};
  Episode episode({2, 1}, util::SimTime(0), initial);
  EXPECT_EQ(episode.FinalState(fsm), initial);  // empty episode

  ActionVector noop(5, kNoAction);
  episode.Record(util::SimTime(0), initial, noop);
  ActionVector light_on(5, kNoAction);
  light_on[2] = *fsm.device(2).FindAction("power_on");
  episode.Record(util::SimTime(1), initial, light_on);
  const StateVector final_state = episode.FinalState(fsm);
  EXPECT_EQ(final_state[2], *fsm.device(2).FindState("on"));
}

TEST(ExtractTriggerActions, SkipsNoOpStepsAndKeepsMinutes) {
  const EnvironmentFsm fsm(ExampleHomeDevices());
  const StateVector initial = {0, 0, 0, 2, 2};
  Episode episode({4, 1}, util::SimTime::FromHms(0, 6, 0), initial);
  const ActionVector noop(5, kNoAction);
  ActionVector act(5, kNoAction);
  act[2] = *fsm.device(2).FindAction("power_on");
  episode.Record(util::SimTime::FromHms(0, 6, 0), initial, noop);
  episode.Record(util::SimTime::FromHms(0, 6, 1), initial, act);
  episode.Record(util::SimTime::FromHms(0, 6, 2), initial, noop);
  episode.Record(util::SimTime::FromHms(0, 6, 3), initial, act);

  const auto tas = ExtractTriggerActions({episode});
  ASSERT_EQ(tas.size(), 2u);
  EXPECT_EQ(tas[0].minute_of_day, 6 * 60 + 1);
  EXPECT_EQ(tas[1].minute_of_day, 6 * 60 + 3);
  EXPECT_EQ(tas[0].action, act);
  EXPECT_EQ(tas[0].trigger_state, initial);
}

TEST(ExtractTriggerActions, AggregatesAcrossEpisodes) {
  const EnvironmentFsm fsm(ExampleHomeDevices());
  const StateVector initial = {0, 0, 0, 2, 2};
  ActionVector act(5, kNoAction);
  act[0] = *fsm.device(0).FindAction("unlock");
  std::vector<Episode> episodes;
  for (int e = 0; e < 3; ++e) {
    Episode episode({1, 1}, util::SimTime::FromDayAndMinute(e, 0), initial);
    episode.Record(util::SimTime::FromDayAndMinute(e, 0), initial, act);
    episodes.push_back(std::move(episode));
  }
  EXPECT_EQ(ExtractTriggerActions(episodes).size(), 3u);
}

}  // namespace
}  // namespace jarvis::fsm
