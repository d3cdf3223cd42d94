// Log parsing (Section V-A-2): folds a normalized event stream into the
// FSM state model and cuts it into learning episodes of {T, I} shape.
//
// Each event carries the device's new state (Attribute.value) and the
// command that caused it (Capability.command). The parser tracks the
// composite state minute by minute; commands become the joint action of
// the interval in which they arrive (constraint: the first command per
// device per interval wins, later ones are dropped and counted).
#pragma once

#include <vector>

#include "events/event.h"
#include "fsm/environment.h"
#include "fsm/episode.h"
#include "obs/metrics.h"

namespace jarvis::events {

struct ParseStats {
  std::size_t events_consumed = 0;
  std::size_t unknown_device = 0;
  std::size_t unknown_state = 0;
  std::size_t unknown_command = 0;
  std::size_t conflicting_commands = 0;  // dropped by first-come-first-served
  std::size_t out_of_order = 0;          // timestamps going backwards
  std::size_t stragglers_skipped = 0;    // late arrivals behind the cursor
};

// Degradation accounting for one Parse call: every reason an event was
// dropped or skipped, plus the configured drop budget. A report beyond
// budget means the stream was too degraded for the episodes to be trusted
// blindly — callers decide (the parser itself never gives up; it parses
// whatever survives). SetMetrics publishes it as events.parser.*.
struct ParseReport {
  ParseStats stats;
  std::size_t events_seen = 0;  // raw stream size before any drop
  double drop_budget = 1.0;     // ceiling on the tolerated drop fraction

  std::size_t events_dropped() const {
    return stats.unknown_device + stats.unknown_state + stats.unknown_command +
           stats.conflicting_commands + stats.stragglers_skipped;
  }
  double DropFraction() const {
    return events_seen == 0
               ? 0.0
               : static_cast<double>(events_dropped()) /
                     static_cast<double>(events_seen);
  }
  bool WithinBudget() const { return DropFraction() <= drop_budget; }
};

class LogParser {
 public:
  // `drop_budget` is the tolerated fraction of dropped/skipped events per
  // Parse call before the report flags the stream as beyond budget; the
  // default tolerates anything (pre-fault-model behavior).
  LogParser(const fsm::EnvironmentFsm& fsm, fsm::EpisodeConfig config,
            double drop_budget = 1.0);

  // Parses a time-sorted event stream starting from `initial_state` at
  // `start`. Produces one episode per period T until the events run out;
  // the final partial episode is included only if `keep_partial`.
  std::vector<fsm::Episode> Parse(const std::vector<Event>& events,
                                  const fsm::StateVector& initial_state,
                                  util::SimTime start,
                                  bool keep_partial = false);

  const ParseStats& stats() const { return report_.stats; }
  const ParseReport& report() const { return report_; }

  // Wires events.parser.* counters (events_seen / accepted / dropped /
  // stragglers / episodes). Null disables. Counters are bumped once per
  // Parse call from the finished report — the per-event loop stays
  // untouched and the counts are exact by construction:
  // events_seen == events_accepted + events_dropped.
  void SetMetrics(obs::Registry* registry);

 private:
  const fsm::EnvironmentFsm& fsm_;
  fsm::EpisodeConfig config_;
  ParseReport report_;
  obs::Counter* events_seen_counter_ = nullptr;
  obs::Counter* events_accepted_counter_ = nullptr;
  obs::Counter* events_dropped_counter_ = nullptr;
  obs::Counter* stragglers_counter_ = nullptr;
  obs::Counter* episodes_counter_ = nullptr;
};

}  // namespace jarvis::events
