// Streaming detection: the deployment-facing counterpart of the batch
// Audit. The monitor consumes normalized events one at a time through
// Consume, maintains the composite FSM state, and classifies every
// command event the moment it arrives — the paper's
// "intelligent monitoring system with a global view" (Section I) running
// online rather than over recorded episodes.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "events/event.h"
#include "spl/learner.h"

namespace jarvis::core {

// Fail-safe behavior for degraded telemetry (deny-unsafe-by-default): a
// command touching a device whose tracked state is unknown or stale is
// denied (reported as kViolation) instead of classified against a context
// the monitor no longer trusts. See DESIGN.md "Fault model & degradation
// behavior".
struct MonitorConfig {
  // Staleness clock: a device whose last accepted event is older than this
  // many minutes has untrusted state. 0 disables the clock (unknown-state
  // denial still applies). The clock starts at a device's first accepted
  // event; until then the constructor-supplied initial state is trusted.
  int staleness_limit_minutes = 0;
};

class OnlineMonitor {
 public:
  // `learner` must be past its learning phase. The monitor starts from
  // `initial_state` and tracks every event it consumes.
  OnlineMonitor(const fsm::EnvironmentFsm& fsm,
                const spl::SafetyPolicyLearner& learner,
                fsm::StateVector initial_state, MonitorConfig config = {});

  // Consumes one event: sensor (command-less) events update the tracked
  // state; command events are classified against it. Returns the verdict
  // for command events, nullopt otherwise. Unknown devices/vocabulary are
  // counted and skipped; an unparseable sensor value additionally marks
  // the device's state unknown until the next good report.
  std::optional<spl::Verdict> Consume(const events::Event& event);

  // Externally marks a device's tracked state untrusted (e.g. a health
  // system observed the device offline); fail-safe denial applies to its
  // commands until a decodable report arrives.
  void MarkStateUnknown(std::size_t device_index);

  // Restore-gap fail-safe: distrust every device at once. Used after a
  // checkpoint restore — events may have occurred between the checkpoint
  // and the crash, so the restored tracked state cannot be assumed current;
  // deny-unsafe applies until each device reports again.
  void MarkAllStatesUnknown();

  // Persistence of the monitor's FSM tracking (tracked state, per-device
  // trust, counters) for checkpointing. LoadJson validates the document
  // against this monitor's home (device count, state ranges) and throws
  // util::JsonError / util::CheckError on mismatch or hostile input,
  // leaving the monitor untouched.
  util::JsonValue ToJson() const;
  void LoadJson(const util::JsonValue& doc);

  const fsm::StateVector& state() const { return state_; }
  const MonitorConfig& config() const { return config_; }
  std::size_t events_consumed() const { return events_consumed_; }
  std::size_t commands_classified() const { return commands_classified_; }
  std::size_t violations() const { return violations_; }
  std::size_t benign_anomalies() const { return benign_anomalies_; }
  std::size_t unknown_events() const { return unknown_events_; }
  // Fail-safe denials, by reason. Denied commands are reported as
  // kViolation but counted here rather than in violations() — they are
  // trust failures, not learner classifications.
  std::size_t stale_denials() const { return stale_denials_; }
  std::size_t unknown_state_denials() const { return unknown_state_denials_; }
  std::size_t failsafe_denials() const {
    return stale_denials_ + unknown_state_denials_;
  }

 private:
  // True when fail-safe must deny commands on this device at `now`.
  bool StateUntrusted(std::size_t device_index, util::SimTime now) const;

  const fsm::EnvironmentFsm& fsm_;
  const spl::SafetyPolicyLearner& learner_;
  fsm::StateVector state_;
  MonitorConfig config_;
  // Per-device trust tracking: last accepted event time (nullopt until the
  // first one; the initial state is trusted until then) and whether the
  // tracked state is currently decodable.
  std::vector<std::optional<util::SimTime>> last_seen_;
  std::vector<bool> state_known_;
  std::size_t events_consumed_ = 0;
  std::size_t commands_classified_ = 0;
  std::size_t violations_ = 0;
  std::size_t benign_anomalies_ = 0;
  std::size_t unknown_events_ = 0;
  std::size_t stale_denials_ = 0;
  std::size_t unknown_state_denials_ = 0;
};

}  // namespace jarvis::core
