// Episodes (Definition 2): ordered state/action records over a time period
// T with interval I. The smart-home instantiation uses T = 1 day and
// I = 1 minute, giving 1440 time instances per episode (Section V-A-2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fsm/environment.h"
#include "fsm/state.h"
#include "util/timeofday.h"

namespace jarvis::fsm {

// Episode shape parameters {T, I}; both in minutes.
struct EpisodeConfig {
  int period_minutes = util::kMinutesPerDay;  // T
  int interval_minutes = 1;                   // I

  // n = ceil(T / I): number of time instances per episode.
  int StepsPerEpisode() const {
    return (period_minutes + interval_minutes - 1) / interval_minutes;
  }
};

// One recorded time instance: the state entered and the joint action taken
// at that instance (A_t produces S_{t+1}).
struct EpisodeStep {
  util::SimTime time;
  StateVector state;
  ActionVector action;
};

// A recorded episode: initial state plus every (state, action) pair.
class Episode {
 public:
  Episode(EpisodeConfig config, util::SimTime start, StateVector initial_state);

  const EpisodeConfig& config() const { return config_; }
  util::SimTime start_time() const { return start_; }
  const StateVector& initial_state() const { return initial_state_; }

  // Appends the next step; the step count may not exceed StepsPerEpisode().
  void Record(util::SimTime time, StateVector state, ActionVector action);

  const std::vector<EpisodeStep>& steps() const { return steps_; }
  std::size_t size() const { return steps_.size(); }
  bool IsComplete() const {
    return steps_.size() ==
           static_cast<std::size_t>(config_.StepsPerEpisode());
  }

  // The state reached after the final recorded action, computed through the
  // FSM (the next episode's natural initial state).
  StateVector FinalState(const EnvironmentFsm& fsm) const;

 private:
  EpisodeConfig config_;
  util::SimTime start_;
  StateVector initial_state_;
  std::vector<EpisodeStep> steps_;
};

// A (trigger, action) observation: trigger is the current composite state
// S_t, the action is A_{t+1} (Section IV-A's T/A behavior). The minute of
// day situates the behavior in time for dis-utility estimation.
struct TriggerAction {
  StateVector trigger_state;
  ActionVector action;
  int minute_of_day = 0;
};

// Appends one episode's T/A observations (all-no-op steps skipped) to
// `out`. Returns the number appended.
std::size_t AppendTriggerActions(const Episode& episode,
                                 std::vector<TriggerAction>* out);

// Flattens episodes into the T/A training dataset TD of Algorithm 1,
// skipping all-no-op steps (no transition to learn).
std::vector<TriggerAction> ExtractTriggerActions(
    const std::vector<Episode>& episodes);

}  // namespace jarvis::fsm
