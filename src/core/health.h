// Pipeline health: the degradation counters every stage of one Jarvis
// instance reports (DESIGN.md §9). The facade fills the parse/learn
// sections in LearnFromEvents, accumulates trainer recoveries in
// OptimizeDay and checkpoint outcomes in RestoreFrom/LoadCheckpoint, and
// folds in a monitor's denials through NoteMonitor.
#pragma once

#include <cstddef>

#include "events/parser.h"
#include "spl/learner.h"

namespace jarvis::core {

struct HealthReport {
  events::ParseReport parse;
  spl::LearnReport learn;
  std::size_t train_divergence_recoveries = 0;
  std::size_t train_poisoned_purged = 0;
  std::size_t monitor_failsafe_denials = 0;
  std::size_t monitor_unknown_events = 0;
  std::size_t checkpoint_sections_restored = 0;
  std::size_t checkpoint_sections_failed = 0;

  // True iff some stage lost, denied or recovered work. ANN-filtered
  // benign anomalies (learn.filtered_benign) are nominal operation and
  // restored checkpoint sections are success, so neither counts.
  bool degraded() const {
    return parse.events_dropped() > 0 || learn.episodes_skipped > 0 ||
           train_divergence_recoveries > 0 || train_poisoned_purged > 0 ||
           monitor_failsafe_denials > 0 || monitor_unknown_events > 0 ||
           checkpoint_sections_failed > 0;
  }
};

}  // namespace jarvis::core
