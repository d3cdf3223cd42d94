// The Jarvis facade: the library's primary public API, wiring the paper's
// pipeline together (Fig. 3):
//
//   1. Logging — device events are stored as 11-field JSON log lines and
//      read back by the logger app (events::).
//   2. Parsing — logs normalize into the FSM state model and cut into
//      learning episodes (events::LogParser).
//   3. Security policy learning — Algorithm 1 builds P_safe with the ANN
//      benign-anomaly filter (spl::SafetyPolicyLearner).
//   4. Optimization — Algorithm 2 trains a constrained DQN per upcoming
//      episode against R_smart (rl::).
//
// Typical use:
//
//   jarvis::core::Jarvis jarvis(home, config);
//   jarvis.LearnFromEvents(log_events, initial_state, start_time, labeled);
//   auto plan = jarvis.OptimizeDay(todays_natural_trace, weights);
//   auto action = jarvis.SuggestAction();   // best safe action now
//
// Concurrency contract (audited for the fleet runtime; see DESIGN.md §10
// and §13): a Jarvis instance owns all of its mutable state — learner,
// health counters, trained agent — and shares only the const
// EnvironmentFsm& it was constructed with. The class keeps no static or
// global mutable state (tools/lint.py enforces this repo-wide), so
// distinct instances may run their full learn→optimize pipelines
// concurrently with no locking. One instance is thread-compatible, not
// thread-safe: no two calls on it may overlap, const ones included.
// SuggestAction and Audit are const but forward through
// neural::Network::PredictOneInto (DqnAgent::QValues, and
// AnnFilter::BenignScore via ClassifyMini), which writes the network's
// mutable inference scratch. Serving is safe only because
// runtime::Fleet::SuggestMinutes holds the tenant's suggest lock.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/health.h"
#include "core/online_monitor.h"
#include "events/logger_app.h"
#include "events/parser.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "rl/trainer.h"
#include "sim/resident.h"
#include "spl/learner.h"
#include "util/io.h"

namespace jarvis::core {

struct JarvisConfig {
  spl::SplConfig spl;
  rl::IoTEnvConfig env;
  rl::DqnConfig dqn;
  rl::TrainerConfig trainer;
  sim::ThermalConfig thermal;
  fsm::EpisodeConfig episode;  // {T = 1 day, I = 1 min} by default
  // Independent training restarts per OptimizeDay; the best greedy policy
  // wins. Sustained-control tasks (deep-winter heating) have a do-nothing
  // local optimum that a single epsilon-greedy run falls into on some
  // seeds; restarts make the day plan robust at 2x training cost.
  int restarts = 2;
  // Graceful-degradation budget for LearnFromEvents: the parser may drop
  // up to this fraction of the incoming events (unknown vocabulary,
  // conflicts, stragglers) before the facade refuses to learn from the
  // remainder — learning from a mostly-lost stream silently whitelists a
  // distorted picture of the home.
  double parse_drop_budget = 0.25;
  // When a restored checkpoint carried a trained DQN, seed OptimizeDay's
  // restart 0 from it instead of a cold network. Off by default: warm
  // starts change the training trajectory, and the fleet's deterministic
  // parity contract (restored run == uninterrupted jobs=1 oracle) holds
  // only on the cold path.
  bool warm_start_dqn = false;
  std::uint64_t seed = 1;
};

// Result of optimizing one day: the trained policy's evaluation episode
// plus the normal-behavior yardstick.
struct DayPlan {
  rl::TrainResult train;
  sim::DayMetrics normal_metrics;
  sim::DayMetrics optimized_metrics;
  std::size_t violations = 0;  // committed by the optimized policy
};

class Jarvis {
 public:
  // `fsm` must outlive the Jarvis instance.
  Jarvis(const fsm::EnvironmentFsm& fsm, JarvisConfig config);

  // --- Learning phase -----------------------------------------------------

  // Learns safety policies directly from parsed learning episodes plus the
  // user-labeled benign anomalies (training set TD).
  void LearnPolicies(const std::vector<fsm::Episode>& learning_episodes,
                     const std::vector<sim::LabeledSample>& labeled);

  // Full pipeline variant: normalized events -> parser -> episodes ->
  // Algorithm 1. Returns the number of learning episodes parsed.
  std::size_t LearnFromEvents(const std::vector<events::Event>& events,
                              const fsm::StateVector& initial_state,
                              util::SimTime start,
                              const std::vector<sim::LabeledSample>& labeled);

  bool learned() const { return learner_.learned(); }
  const spl::SafetyPolicyLearner& learner() const { return learner_; }

  // --- Optimization phase ---------------------------------------------—--

  // Trains a constrained DQN for the day of `natural` under the given
  // functionality weights and evaluates it against normal behavior. The
  // trained agent is retained for SuggestAction().
  DayPlan OptimizeDay(const sim::DayTrace& natural,
                      rl::RewardWeights weights);

  // Best safe joint action for an arbitrary observation, from the most
  // recently trained policy. Requires a prior OptimizeDay on a scenario
  // with the same home. The paper's deployment mode: the user may take
  // some actions manually and rely on Jarvis for the rest; Jarvis suggests
  // from whatever state the environment reached. Const, and it leaves the
  // agent's exploration state alone (the greedy decode goes through
  // rl::DqnAgent::GreedyActionFromQ, bypassing SelectAction's
  // sticky-exploration memory), but the forward writes network scratch:
  // calls on one instance must not overlap (see the contract above).
  fsm::ActionVector SuggestAction(const fsm::StateVector& state,
                                  int minute) const;

  // Read-only access to the trained policy and its featurizer for the
  // batched inference path (runtime::Fleet::SuggestMinutes answers a
  // tenant's queried minutes in batched forwards). Null before the first
  // OptimizeDay.
  const rl::DqnAgent* agent() const { return agent_.get(); }
  const rl::IoTEnv* policy_env() const { return last_env_.get(); }

  // Audits any episode against the learnt policies (detection pipeline).
  spl::AuditResult Audit(const fsm::Episode& episode) const;

  // --- Checkpoint lifecycle -----------------------------------------------

  // Per-section outcome of a checkpoint restore. Recovery is per-section:
  // a corrupt or rejected section is dropped (the component keeps its
  // cold-start, fail-safe state) while valid sections are still restored.
  struct RestoreReport {
    bool file_found = false;        // false: cold start, nothing to restore
    bool meta_valid = false;        // false: nothing was trusted
    bool spl_restored = false;      // P_safe + ANN filter reloaded
    bool dqn_staged = false;        // warm-start DQN doc staged (see below)
    bool monitor_restored = false;  // tracked state + counters reloaded
    std::size_t sections_restored = 0;
    std::size_t sections_failed = 0;
    // File- and section-level diagnostics from the container parser plus
    // validation rejections; persist::FormatIssues renders them.
    std::vector<persist::CheckpointIssue> issues;
  };

  // Captures the instance's learnt state as a versioned, checksummed
  // checkpoint: "meta" (home-compatibility guard), "spl" (whitelist + ANN,
  // when learned), "dqn" (trained agent + optimizer state, when present),
  // and "monitor" (tracked FSM state, when a monitor is passed).
  persist::Checkpoint MakeCheckpoint(
      const OnlineMonitor* monitor = nullptr) const;
  // MakeCheckpoint + atomic durable write (util::io::AtomicWriteFile; the
  // interceptor seam is for storage-fault injection in chaos tests).
  void SaveCheckpoint(const std::string& path,
                      const OnlineMonitor* monitor = nullptr,
                      util::io::WriteInterceptor* interceptor = nullptr) const;

  // Restores per-section with fail-safe fallback; never throws on corrupt
  // or hostile content (missing/unreadable files and checksum-failed or
  // malformed sections are reported in the result and counted in
  // Health()). The "meta" section must validate against this home or
  // nothing is trusted. A restored "dqn" section is staged, not applied:
  // OptimizeDay's restart 0 warm-starts from it when
  // config.warm_start_dqn is set. A restored monitor is put in deny-unsafe
  // mode (MarkAllStatesUnknown) until every device reports again — events
  // may have occurred between the checkpoint and the crash.
  RestoreReport RestoreFrom(const persist::Checkpoint& checkpoint,
                            OnlineMonitor* monitor = nullptr);
  RestoreReport LoadCheckpoint(const std::string& path,
                               OnlineMonitor* monitor = nullptr);

  // --- Degradation telemetry ----------------------------------------------

  // Aggregated counters from every stage run so far on this instance:
  // LearnFromEvents fills the parse/learn sections, OptimizeDay accumulates
  // the trainer's divergence recoveries, and NoteMonitor folds in a
  // monitor's denials.
  const HealthReport& Health() const { return health_; }

  // Snapshots a monitor's fail-safe and unknown-event counters into the
  // health report (replaces the previous snapshot of the same monitor).
  void NoteMonitor(const OnlineMonitor& monitor) {
    health_.monitor_failsafe_denials = monitor.failsafe_denials();
    health_.monitor_unknown_events = monitor.unknown_events();
  }

  // --- Observability ------------------------------------------------------

  // The instance's metrics registry (core.jarvis.*, events.parser.*,
  // spl.*, rl.* instruments accumulate here across calls), wired through
  // every pipeline stage the instance owns (parser, learner, trainer,
  // agent, network). Each instance owns its own registry — there is no
  // global one — so fleet tenants never share metric state.
  obs::Registry& Metrics() { return registry_; }
  obs::MetricsSnapshot TakeMetricsSnapshot() const {
    return registry_.TakeSnapshot();
  }

  const JarvisConfig& config() const { return config_; }
  const fsm::EnvironmentFsm& fsm() const { return fsm_; }

 private:
  const fsm::EnvironmentFsm& fsm_;
  JarvisConfig config_;
  // Declared before every component that may cache instrument pointers
  // into it, so those components are destroyed first.
  obs::Registry registry_;
  spl::SafetyPolicyLearner learner_;
  HealthReport health_;
  std::unique_ptr<rl::DqnAgent> agent_;
  // The optimized day, owned here because last_env_ references it and both
  // outlive OptimizeDay's caller-provided trace. Declared before last_env_
  // so reverse destruction tears the env down first.
  std::unique_ptr<sim::DayTrace> last_day_;
  std::unique_ptr<rl::IoTEnv> last_env_;  // featurizer for SuggestAction
  // Staged warm-start DQN document from the last successful checkpoint
  // restore; consumed by OptimizeDay restart 0 when config_.warm_start_dqn.
  std::unique_ptr<util::JsonValue> warm_dqn_doc_;
  // Facade-level counters, cached at construction. suggest_counter_ is
  // bumped from const SuggestAction (Counter::Increment is a relaxed
  // atomic).
  obs::Counter* learn_counter_ = nullptr;
  obs::Counter* optimize_counter_ = nullptr;
  obs::Counter* suggest_counter_ = nullptr;
};

}  // namespace jarvis::core
