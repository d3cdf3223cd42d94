// Multi-tenant fleet runtime: N independent smart homes, each running its
// own core::Jarvis learn→optimize pipeline, scheduled across a
// runtime::ThreadPool. The paper frames Jarvis as one agent per
// environment (Section III-A), which is exactly the shape that shards: a
// tenant owns every piece of mutable state its pipeline touches and shares
// only the const fsm::EnvironmentFsm device model, so tenant jobs are
// embarrassingly parallel.
//
// Determinism contract (pinned by runtime_fleet_test):
//   * Every tenant's seed derives from the fleet seed via
//     util::DeriveSeed(fleet_seed, tenant_index) — never from scheduling.
//   * A tenant's whole pipeline runs inside one task on one worker; shards
//     never exchange data mid-run.
//   * Therefore per-tenant results are identical for ANY worker count, and
//     `jobs = 1` (run inline on the calling thread, no pool) is the
//     sequential oracle the parallel runs must reproduce bit-for-bit.
//
// Failure containment: a tenant whose pipeline throws is quarantined — its
// error is recorded in its TenantResult slot and it is skipped by later
// phases — and the fleet keeps serving the other tenants. A tenant failure
// must never tear down the process (ThreadPool's exception backstop
// guarantees that even for non-std::exception throwables).
//
// Thread safety (DESIGN.md §13): one fleet-level util::Mutex guards the
// shard table and the last report; tenant jobs touch their shard only at
// job start (read the quarantine flag) and job end (store the trained
// pipeline), so the lock never serializes the pipelines themselves.
// Accessors (report(), TenantMetrics(), SuggestMinutes()) are safe to
// call concurrently with Run; report() snapshots by value under the lock.
// Accessors that use a tenant's trained pipeline (SuggestMinutes,
// TenantMetrics, SaveCheckpoints) pin it with a shared_ptr for the
// duration of the call, so a concurrent re-Run cannot destroy it under
// them. Caveat: tenant() still returns a raw pointer whose object the
// NEXT Run of that tenant replaces — don't hold it across a re-run.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/jarvis.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "runtime/thread_pool.h"
#include "util/io.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace jarvis::runtime {

struct FleetConfig {
  std::size_t tenants = 1;
  // Worker threads for tenant jobs. 1 = sequential mode: jobs run inline
  // on the calling thread with no pool — the determinism oracle.
  std::size_t jobs = 1;
  // Root seed; tenant i's pipeline seeds derive from
  // DeriveSeed(fleet_seed, i).
  std::uint64_t fleet_seed = 1;
  // Per-tenant config template. The seed fields (spl.seed, dqn.seed, seed)
  // are overridden per tenant from the derived tenant seed; everything
  // else applies verbatim to every tenant.
  core::JarvisConfig tenant_config;
  // Backpressure bound on the scheduler queue.
  std::size_t queue_capacity = 256;
};

// Everything one tenant's learn+optimize job consumes. Produced per tenant
// by a WorkloadFactory — deterministically from (tenant_index,
// tenant_seed), never from shared mutable state.
struct TenantWorkload {
  std::vector<events::Event> events;  // learning-phase device log
  fsm::StateVector initial_state;
  util::SimTime start{0};
  std::vector<sim::LabeledSample> labeled;  // ANN training set TD
  // The day to optimize (placeholder episode until the factory fills it;
  // fsm::Episode has no default constructor).
  sim::DayTrace day{{}, fsm::Episode{{1, 1}, util::SimTime(0), {0}}, {}, {},
                    {}};
  rl::RewardWeights weights;
};

// Must be safe to call concurrently for DISTINCT tenant indices (it runs
// inside the tenant's job). Throwing quarantines the tenant.
using WorkloadFactory =
    std::function<TenantWorkload(std::size_t tenant_index,
                                 std::uint64_t tenant_seed)>;

// Canned factory: simulates each tenant's home with a ResidentSimulator
// seeded from the tenant seed — `learning_days` of natural behavior for
// the learning phase plus one more day to optimize. This is what the CLI
// and bench run; tests inject custom factories.
struct SimulatedWorkloadOptions {
  int learning_days = 3;
  std::size_t benign_anomaly_samples = 500;
  rl::RewardWeights weights;
};
WorkloadFactory SimulatedWorkloadFactory(const fsm::EnvironmentFsm& home,
                                         SimulatedWorkloadOptions options);

// Outcome of one tenant's pipeline. Slot i of FleetReport::tenants is
// tenant i regardless of completion order.
struct TenantResult {
  std::size_t tenant = 0;
  std::uint64_t seed = 0;
  bool completed = false;
  bool quarantined = false;
  // This run reused restored policies (checkpoint restore or warm-start
  // template) instead of re-running the learning phase.
  bool warm_started = false;
  std::string error;  // what quarantined it
  std::size_t learning_episodes = 0;
  core::DayPlan plan;
  core::HealthReport health;
};

struct FleetReport {
  std::vector<TenantResult> tenants;
  std::size_t completed = 0;
  std::size_t quarantined = 0;
  std::size_t warm_started = 0;
  std::size_t degraded = 0;  // completed tenants whose health degraded()
  // Aggregates over completed tenants (optimized day).
  double total_energy_kwh = 0.0;
  double total_cost_usd = 0.0;
  std::size_t total_violations = 0;
};

// Outcome of one tenant's checkpoint save or restore.
struct TenantCheckpointResult {
  std::size_t tenant = 0;
  bool attempted = false;  // false: no pipeline to save / no file
  bool succeeded = false;
  int write_attempts = 0;  // save: writes tried (0 if skipped)
  std::string error;
  core::Jarvis::RestoreReport restore;  // restore only
};

struct FleetCheckpointReport {
  std::vector<TenantCheckpointResult> tenants;
  std::size_t succeeded = 0;
  std::size_t failed = 0;   // attempted but not succeeded
  std::size_t skipped = 0;  // nothing to do for this tenant
};

class Fleet {
 public:
  // `home` is the shared const device model; it must outlive the fleet.
  Fleet(const fsm::EnvironmentFsm& home, FleetConfig config);

  // Runs LearnFromEvents + OptimizeDay for every tenant (workloads from
  // `factory`) across the pool and aggregates. Each tenant's trained
  // pipeline is retained for SuggestMinutes / tenant(). Calling Run again
  // re-runs every non-quarantined tenant. A tenant holding restored (or
  // warm-start template) policies skips LearnFromEvents and goes straight
  // to OptimizeDay (TenantResult::warm_started).
  FleetReport Run(const WorkloadFactory& factory) JARVIS_EXCLUDES(mutex_);

  // --- Checkpoint lifecycle -----------------------------------------------

  // Writes one checkpoint per completed tenant into `dir`
  // (tenant-<i>.ckpt), each through the atomic write path, trying a
  // failing write at most three times back to back (storage faults are
  // often transient). The interceptor seam injects storage faults in chaos
  // tests. Tenants without a run pipeline are skipped.
  FleetCheckpointReport SaveCheckpoints(
      const std::string& dir,
      util::io::WriteInterceptor* interceptor = nullptr)
      JARVIS_EXCLUDES(mutex_);

  // Restores per-tenant state from `dir`: each tenant with a readable,
  // valid checkpoint gets a freshly constructed pipeline loaded from it
  // and marked for warm start at its next Run. Corrupt/missing files are
  // reported per tenant (never thrown) and leave that tenant cold.
  FleetCheckpointReport RestoreCheckpoints(const std::string& dir)
      JARVIS_EXCLUDES(mutex_);

  // tenant-<i>.ckpt under `dir`.
  static std::string TenantCheckpointPath(const std::string& dir,
                                          std::size_t tenant);

  // Batched deployment-mode suggestion: greedy actions for one tenant at
  // each queried minute, bit-identical to calling Jarvis::SuggestAction
  // per minute. One batched forward through the tenant's own network per
  // kSuggestChunkRows minutes, serialized per tenant by the shard's
  // suggest mutex (the network's inference scratch is per tenant);
  // distinct tenants run in parallel. Thread-safe; callers need no
  // external locking.
  static constexpr std::size_t kSuggestChunkRows = 256;
  std::vector<fsm::ActionVector> SuggestMinutes(
      std::size_t tenant, const fsm::StateVector& state,
      const std::vector<int>& minutes) const JARVIS_EXCLUDES(mutex_);

  // The tenant's facade (null for out-of-range), e.g. for audits. Stable
  // until that tenant's next Run (see the re-run caveat above).
  const core::Jarvis* tenant(std::size_t index) const JARVIS_EXCLUDES(mutex_);
  std::size_t tenant_count() const { return config_.tenants; }
  const FleetConfig& config() const { return config_; }
  // Snapshot of the last Run()'s report (empty before the first Run).
  FleetReport report() const JARVIS_EXCLUDES(mutex_);

  // --- Observability ------------------------------------------------------
  //
  // Two metric scopes, deliberately separate:
  //   * Fleet-level (this registry): runtime.fleet.* run counters, the
  //     per-phase timers runtime.fleet.{workload,learn,optimize}_us (one
  //     observation per tenant that entered the phase), plus the
  //     runtime.pool.* instruments of the scheduling pool. Mostly kTiming
  //     or scheduling-shaped — never compared across worker counts.
  //   * Tenant-level: each tenant Jarvis owns its OWN registry, so
  //     per-tenant metrics are a pure function of the tenant seed and
  //     identical for any `jobs` — the deterministic snapshots the fleet
  //     parity tests compare.

  obs::Registry& Metrics() { return registry_; }
  obs::MetricsSnapshot TakeMetricsSnapshot() const {
    return registry_.TakeSnapshot();
  }
  // Snapshot of tenant `index`'s own registry (throws std::logic_error for
  // a tenant that has not completed a run).
  obs::MetricsSnapshot TenantMetrics(std::size_t index) const
      JARVIS_EXCLUDES(mutex_);
  // Element-wise sum of every completed tenant's snapshot — the fleet-wide
  // pipeline totals (events parsed, violations filtered, DQN steps, ...).
  obs::MetricsSnapshot AggregateTenantMetrics() const JARVIS_EXCLUDES(mutex_);

 private:
  struct TenantShard {
    // Shared, not unique: accessors (SuggestMinutes, TenantMetrics,
    // checkpoint saves) pin the pipeline with their own reference, so a
    // concurrent re-Run replaces this slot without pulling the object out
    // from under them.
    std::shared_ptr<core::Jarvis> jarvis;
    // Pipeline holding restored policies, staged by RestoreCheckpoints;
    // consumed (moved out) by the tenant's next Run.
    std::unique_ptr<core::Jarvis> warm_start;
    // Serializes this tenant's SuggestMinutes forwards (they share the
    // network's inference scratch).
    mutable util::Mutex suggest_mutex;
    bool quarantined = false;
  };

  // DeriveSeed(fleet_seed, index): a pure function of the config.
  std::uint64_t TenantSeed(std::size_t index) const;
  void RunTenant(std::size_t index, const WorkloadFactory& factory,
                 TenantResult& result) JARVIS_EXCLUDES(mutex_);
  // Schedules fn(i) for every tenant: inline when jobs <= 1, else across a
  // pool. Returns once all jobs finished.
  void ForEachTenant(const std::function<void(std::size_t)>& fn)
      JARVIS_EXCLUDES(mutex_);

  const fsm::EnvironmentFsm& home_;   // unguarded: shared const device model
  const FleetConfig config_;          // unguarded: fixed at construction
  // Declared before the shards so tenants (which never reference these —
  // they own their registries) and any cached instrument pointers die
  // first on destruction.
  obs::Registry registry_;  // unguarded: internally synchronized
  mutable util::Mutex mutex_;
  // One shard per tenant, sized at construction and never resized;
  // elements are written only by their own tenant's job (start/end, under
  // the lock) and by RestoreCheckpoints.
  std::vector<TenantShard> shards_ JARVIS_GUARDED_BY(mutex_);
  FleetReport report_ JARVIS_GUARDED_BY(mutex_);
};

}  // namespace jarvis::runtime
