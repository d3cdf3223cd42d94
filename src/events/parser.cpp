#include "events/parser.h"

#include <algorithm>

namespace jarvis::events {

LogParser::LogParser(const fsm::EnvironmentFsm& fsm, fsm::EpisodeConfig config,
                     double drop_budget)
    : fsm_(fsm), config_(config) {
  report_.drop_budget = drop_budget;
}

void LogParser::SetMetrics(obs::Registry* registry) {
  if (registry == nullptr) {
    events_seen_counter_ = nullptr;
    events_accepted_counter_ = nullptr;
    events_dropped_counter_ = nullptr;
    stragglers_counter_ = nullptr;
    episodes_counter_ = nullptr;
    return;
  }
  events_seen_counter_ = registry->GetCounter("events.parser.events_seen");
  events_accepted_counter_ =
      registry->GetCounter("events.parser.events_accepted");
  events_dropped_counter_ =
      registry->GetCounter("events.parser.events_dropped");
  stragglers_counter_ =
      registry->GetCounter("events.parser.stragglers_skipped");
  episodes_counter_ = registry->GetCounter("events.parser.episodes_parsed");
}

std::vector<fsm::Episode> LogParser::Parse(
    const std::vector<Event>& events, const fsm::StateVector& initial_state,
    util::SimTime start, bool keep_partial) {
  fsm_.ValidateState(initial_state);
  const double drop_budget = report_.drop_budget;
  report_ = {};
  report_.drop_budget = drop_budget;
  report_.events_seen = events.size();
  ParseStats& stats = report_.stats;

  std::vector<fsm::Episode> episodes;
  if (events.empty()) return episodes;

  // The parsing horizon runs from `start` to the last event, rounded up to
  // a whole episode.
  util::SimTime last_event_time = start;
  for (const auto& event : events) {
    if (event.date < last_event_time) {
      ++stats.out_of_order;
    } else {
      last_event_time = event.date;
    }
  }

  fsm::StateVector state = initial_state;
  std::size_t cursor = 0;
  util::SimTime t = start;
  const std::vector<fsm::Device>& devices = fsm_.devices();
  // Per-interval scratch, reused across steps. A device has acted this
  // interval iff its action slot is set.
  fsm::ActionVector action(devices.size(), fsm::kNoAction);
  bool any_action = false;

  while (cursor < events.size() || (t - start) == 0) {
    fsm::Episode episode(config_, t, state);
    const int steps = config_.StepsPerEpisode();
    for (int step = 0; step < steps; ++step) {
      const util::SimTime interval_end = t + config_.interval_minutes;

      while (cursor < events.size() && events[cursor].date < interval_end) {
        const Event& event = events[cursor];
        ++cursor;
        if (event.date < t) {
          // Out-of-order straggler (late arrival): skipped, but accounted
          // for so degraded transports are visible in the ParseReport.
          ++stats.stragglers_skipped;
          continue;
        }
        ++stats.events_consumed;

        const auto id = fsm_.FindDevice(event.device_label);
        if (!id) {
          ++stats.unknown_device;
          continue;
        }
        const auto device_index = static_cast<std::size_t>(*id);
        const fsm::Device& device = devices[device_index];

        if (!event.command.empty()) {
          const auto action_index = device.FindAction(event.command);
          if (!action_index) {
            ++stats.unknown_command;
            continue;
          }
          if (action[device_index] != fsm::kNoAction) {
            ++stats.conflicting_commands;  // first command wins
            continue;
          }
          action[device_index] = *action_index;
          any_action = true;
        } else {
          // Exogenous attribute change (sensor flips, user arrives, ...).
          // It describes the state *at* its timestamp (sensors report
          // readings, they do not cause them), so it lands before the step
          // is recorded; commands then act on the updated state.
          const auto state_index = device.FindState(event.attribute_value);
          if (!state_index) {
            ++stats.unknown_state;
            continue;
          }
          state[device_index] = *state_index;
        }
      }

      episode.Record(t, state, action);
      if (any_action) {
        for (std::size_t i = 0; i < state.size(); ++i) {
          state[i] = devices[i].Transition(state[i], action[i]);
        }
        std::fill(action.begin(), action.end(), fsm::kNoAction);
        any_action = false;
      }
      t = interval_end;
    }
    const bool complete = episode.IsComplete();
    if (complete || keep_partial) episodes.push_back(std::move(episode));
    if (cursor >= events.size()) break;
  }
  if (events_seen_counter_ != nullptr) {
    // Every seen event is either a straggler or consumed, and consumed
    // events either pass the vocabulary/conflict checks (accepted) or are
    // dropped — so accepted + dropped == seen holds by construction.
    const std::size_t vocab_drops = stats.unknown_device +
                                    stats.unknown_state +
                                    stats.unknown_command +
                                    stats.conflicting_commands;
    events_seen_counter_->Increment(report_.events_seen);
    events_accepted_counter_->Increment(stats.events_consumed - vocab_drops);
    events_dropped_counter_->Increment(report_.events_dropped());
    stragglers_counter_->Increment(stats.stragglers_skipped);
    episodes_counter_->Increment(episodes.size());
  }
  return episodes;
}

}  // namespace jarvis::events
