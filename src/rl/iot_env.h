// The simulated RL environment of Section V-A-5 (the paper builds it on
// OpenAI Gym): a day-long episode over the smart-home FSM, with physics
// (thermal model, power draw, day-ahead prices), exogenous resident
// behavior, the R_smart reward, and optional P_safe constraint enforcement.
//
// Episode structure: T = 1 day. The environment integrates physics at
// minute resolution (I = 1 min, matching the paper); the agent submits a
// joint action every `decision_interval_minutes` (default 10) — a
// computational batching of Algorithm 2's per-instance loop documented in
// DESIGN.md. Exogenous resident actions (leaving/arriving, cooking, meals,
// entertainment) replay from the day's *natural* trace so that normal and
// Jarvis-optimized behavior face identical conditions; the agent owns the
// optimization surface (thermostat, lighting, deferrable appliances) but
// may attempt actions on any device — the resident wins same-interval
// conflicts first-come-first-served (constraint 4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "fsm/episode.h"
#include "rl/reward.h"
#include "sim/resident.h"
#include "spl/learner.h"

namespace jarvis::rl {

struct IoTEnvConfig {
  int decision_interval_minutes = 10;
  RewardWeights weights;
  // When true, SafeSlotMask() exposes only P_safe-whitelisted mini-actions
  // and Step() refuses unlisted ones; when false the agent may take any
  // action (the unconstrained baseline) and violations are only counted.
  bool constrained = true;
};

struct StepResult {
  double reward = 0.0;
  bool done = false;
};

class IoTEnv {
 public:
  // `natural` must be the resident trace for the same scenario the agent
  // will optimize; `learner` may be null only when unconstrained.
  IoTEnv(const fsm::EnvironmentFsm& fsm, const sim::DayTrace& natural,
         sim::ThermalConfig thermal, const spl::SafetyPolicyLearner* learner,
         IoTEnvConfig config);

  // Restarts the episode; returns nothing (query state()/Features()).
  void Reset();

  // Applies the agent's joint action at the current decision instant, then
  // integrates exogenous behavior and physics until the next one.
  StepResult Step(const fsm::ActionVector& agent_action);

  bool done() const { return minute_ >= util::kMinutesPerDay; }
  int current_minute() const { return minute_; }
  const fsm::StateVector& state() const { return state_; }
  int steps_per_episode() const {
    return util::kMinutesPerDay / config_.decision_interval_minutes;
  }

  // DQN featurization of the current observation.
  std::vector<double> Features() const;
  // Featurization of an arbitrary (state, minute) under this env's
  // scenario (the SuggestAction path; indoor temperature uses the env's
  // current thermal state).
  std::vector<double> FeaturesFor(const fsm::StateVector& state,
                                  int minute) const;
  std::size_t feature_width() const;

  // Availability mask over mini-action slots for the current observation:
  // no-ops always on; actions without effect off; and, when constrained,
  // only P_safe-whitelisted mini-actions on.
  std::vector<bool> SafeSlotMask() const;
  // The same mask for an arbitrary (state, minute), used when computing
  // replay targets.
  std::vector<bool> SafeSlotMaskFor(const fsm::StateVector& state,
                                    int minute) const;

  // Demonstration action for the upcoming decision interval: what the
  // resident's natural behavior did with the agent-owned devices
  // (thermostat, light, deferrable appliances) in [now, now + interval).
  // Used to seed the replay buffer with a known-good trajectory so
  // sustained-control behaviors (winter heating) are discoverable.
  fsm::ActionVector DemonstrationAction() const;

  // Count of *distinct* violation patterns the agent committed this
  // episode: one per (device, action, device-state, day-part). A policy
  // re-committing the same unsafe pattern every interval raises one
  // alert, matching how an auditor reports deduplicated findings.
  std::size_t violations() const { return violation_patterns_.size(); }
  // Raw count of executed agent mini-actions judged kViolation.
  std::size_t violation_events() const { return violation_events_; }
  // Episode cumulative reward so far (sum of per-minute rewards).
  double cumulative_reward() const { return cumulative_reward_; }

  // Minute-resolution record of the episode (for audits and metrics).
  const fsm::Episode& episode() const { return episode_; }
  const std::vector<double>& indoor_trace() const { return indoor_c_; }
  sim::DayMetrics Metrics() const;

  const fsm::EnvironmentFsm& fsm() const { return fsm_; }
  const IoTEnvConfig& config() const { return config_; }
  const sim::DayScenario& scenario() const { return natural_.scenario; }

 private:
  // One simulated minute: merge actions, advance FSM and physics, charge
  // rewards. `agent_action` is non-null only on decision minutes.
  double AdvanceMinute(const fsm::ActionVector* agent_action);

  // Exogenous resident mini-actions for this minute, from the natural
  // trace, restricted to resident-owned devices.
  fsm::ActionVector ResidentActionsAt(int minute) const;

  const fsm::EnvironmentFsm& fsm_;
  const sim::DayTrace& natural_;
  sim::ThermalConfig thermal_config_;
  const spl::SafetyPolicyLearner* learner_;
  IoTEnvConfig config_;
  SmartReward reward_;

  sim::HomeRefs refs_;
  double max_watts_;
  double max_price_;

  // --- per-episode state ---
  int minute_ = 0;
  fsm::StateVector state_;
  sim::ThermalModel thermal_;
  fsm::Episode episode_;
  std::vector<double> indoor_c_;
  std::set<std::uint64_t> violation_patterns_;
  std::size_t violation_events_ = 0;
  double cumulative_reward_ = 0.0;

  // Deferrable demand tracking: satisfied once the device's start action
  // executes; pending delay accrues dis-utility.
  struct DemandState {
    sim::ApplianceDemand demand;
    fsm::DeviceId device;
    bool started = false;
    int finish_minute = -1;  // scheduled auto-finish once started
  };
  std::vector<DemandState> demands_;
};

}  // namespace jarvis::rl
