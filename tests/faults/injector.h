// Seeded fault injection over the event path. FaultInjector corrupts a
// recorded, time-sorted event stream (e.g. a simulator trace) before it
// reaches the parser, with the fault vocabulary of faults::FaultSchedule,
// and counts every fault it actually injects (FaultCounters), so chaos
// tests can check downstream degradation accounting against ground truth.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "events/event.h"
#include "obs/metrics.h"
#include "schedule.h"

namespace jarvis::faults {

// Apply() is deterministic for a given (schedule, stream) pair: it re-seeds
// its RNG from the schedule seed on every call, so the same call yields the
// same faulted stream bit for bit.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSchedule schedule);

  // Returns the faulted copy of `events` (which must be time-sorted, the
  // parser's own precondition). Counters accumulate across calls.
  std::vector<events::Event> Apply(const std::vector<events::Event>& events);

  const FaultCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = {}; }
  const FaultSchedule& schedule() const { return schedule_; }

  // Wires faults.injector.* counters mirroring FaultCounters (one obs
  // counter per fault kind, bumped by delta at the end of each Apply).
  // Ground truth for the chaos tests' counter round-trip. Null disables.
  void SetMetrics(obs::Registry* registry);

 private:
  FaultSchedule schedule_;
  FaultCounters counters_;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* duplicated_counter_ = nullptr;
  obs::Counter* delayed_counter_ = nullptr;
  obs::Counter* reordered_counter_ = nullptr;
  obs::Counter* corrupted_counter_ = nullptr;
  obs::Counter* offline_counter_ = nullptr;
  obs::Counter* flap_counter_ = nullptr;
  obs::Counter* stuck_counter_ = nullptr;
};

}  // namespace jarvis::faults
