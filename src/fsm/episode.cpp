#include "fsm/episode.h"

#include <algorithm>

#include "util/check.h"

namespace jarvis::fsm {

Episode::Episode(EpisodeConfig config, util::SimTime start,
                 StateVector initial_state)
    : config_(config), start_(start), initial_state_(std::move(initial_state)) {
  JARVIS_CHECK(config_.period_minutes > 0 && config_.interval_minutes > 0,
               "Episode: T and I must be positive (T=",
               config_.period_minutes, ", I=", config_.interval_minutes, ")");
  JARVIS_CHECK_LE(config_.interval_minutes, config_.period_minutes,
                  "Episode: I > T");
  steps_.reserve(static_cast<std::size_t>(config_.StepsPerEpisode()));
}

void Episode::Record(util::SimTime time, StateVector state,
                     ActionVector action) {
  JARVIS_CHECK(!IsComplete(), "Episode::Record: episode already complete");
  steps_.push_back({time, std::move(state), std::move(action)});
}

StateVector Episode::FinalState(const EnvironmentFsm& fsm) const {
  if (steps_.empty()) return initial_state_;
  return fsm.Apply(steps_.back().state, steps_.back().action);
}

std::size_t AppendTriggerActions(const Episode& episode,
                                 std::vector<TriggerAction>* out) {
  std::size_t appended = 0;
  for (const auto& step : episode.steps()) {
    const bool any_action =
        std::any_of(step.action.begin(), step.action.end(),
                    [](ActionIndex a) { return a != kNoAction; });
    if (!any_action) continue;
    out->push_back({step.state, step.action, step.time.minute_of_day()});
    ++appended;
  }
  return appended;
}

std::vector<TriggerAction> ExtractTriggerActions(
    const std::vector<Episode>& episodes) {
  std::vector<TriggerAction> result;
  for (const auto& episode : episodes) {
    AppendTriggerActions(episode, &result);
  }
  return result;
}

}  // namespace jarvis::fsm
