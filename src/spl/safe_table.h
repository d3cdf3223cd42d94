// The safe state-transition table P_safe of Algorithm 1.
//
// The paper stores P_safe over exact composite state pairs [S, S']. For an
// 11-device home that representation never generalizes: every benign day
// visits composite states the learning week never produced (a different
// TV/washer combination), so exact matching floods the detector with false
// positives. We therefore support two key modes:
//
//  * kExactState — the paper's literal formulation, P_safe[S, S'].
//    Retained for unit tests, tiny environments, and the ablation bench
//    that demonstrates the generalization failure.
//  * kFactoredContext (default) — per mini-action keys
//      (device, action, device-state, safety-context, time bucket)
//    where the safety context is the joint state of the security-critical
//    devices (lock, door sensor, temperature sensor) and the time bucket
//    is a 3-hour slot. This keeps the whitelist sound (an action is only
//    admitted in contexts and day-parts where it was actually observed)
//    while generalizing across irrelevant appliance combinations.
//
// Both modes implement "count > Thresh_env then admit" exactly as in
// Algorithm 1.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fsm/environment.h"
#include "fsm/episode.h"
#include "util/json.h"

namespace jarvis::spl {

enum class KeyMode { kExactState, kFactoredContext };

inline constexpr int kTimeBucketMinutes = 3 * 60;

class SafeTransitionTable {
 public:
  SafeTransitionTable(const fsm::EnvironmentFsm& fsm, KeyMode mode,
                      int count_threshold);

  KeyMode mode() const { return mode_; }
  int count_threshold() const { return threshold_; }

  // Records one observation of (trigger state, action) at a minute of day.
  void Observe(const fsm::StateVector& state, const fsm::ActionVector& action,
               int minute_of_day);

  // Finalizes counts into the admit set (Algorithm 1's thresholding).
  // Until Finalize() is called, IsSafe() admits nothing.
  void Finalize();

  // True when every non-no-op mini-action of `action` was observed more
  // than Thresh times in this context. All-no-op actions are always safe
  // (doing nothing cannot create a new hazard).
  bool IsSafe(const fsm::StateVector& state, const fsm::ActionVector& action,
              int minute_of_day) const;

  // Per-mini-action check (the constrained-exploration hook).
  bool IsMiniActionSafe(const fsm::StateVector& state,
                        const fsm::MiniAction& mini, int minute_of_day) const;

  // Lists the mini-actions of `action` that are NOT admitted (the concrete
  // violations to report). Empty result == safe.
  std::vector<fsm::MiniAction> UnsafeMiniActions(
      const fsm::StateVector& state, const fsm::ActionVector& action,
      int minute_of_day) const;

  std::size_t observed_key_count() const { return counts_.size(); }
  std::size_t admitted_key_count() const { return admitted_.size(); }
  bool finalized() const { return finalized_; }

  // Serialization: the observation counts. Keys are the
  // stable internal hashes (recomputed identically by any build of this
  // library for the same home).
  util::JsonValue ToJson() const;
  // Restores counts/admissions saved by ToJson into this table (which must
  // be configured with the same mode/threshold/home) and finalizes.
  void LoadJson(const util::JsonValue& doc);

 private:
  std::uint64_t MakeKey(const fsm::StateVector& state,
                        const fsm::MiniAction& mini, int minute_of_day) const;

  const fsm::EnvironmentFsm& fsm_;
  KeyMode mode_;
  int threshold_;
  bool finalized_ = false;
  std::vector<fsm::DeviceId> context_devices_;
  fsm::DeviceId temp_sensor_ = -1;
  fsm::DeviceId thermostat_ = -1;
  fsm::StateIndex fire_state_ = -1;
  std::unordered_map<std::uint64_t, int> counts_;
  std::unordered_map<std::uint64_t, bool> admitted_;
};

}  // namespace jarvis::spl
