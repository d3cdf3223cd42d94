#include "runtime/fleet.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "rl/iot_env.h"
#include "sim/anomaly.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace jarvis::runtime {

namespace {

// Sub-stream indices under a tenant's derived seed. Every seeded component
// of a tenant pipeline draws a distinct DeriveSeed stream so components
// never share (or partially overlap) generator state.
enum TenantStream : std::uint64_t {
  kSplStream = 1,
  kDqnStream = 2,
  kResidentStream = 3,
  kScenarioStream = 4,
  kAnomalyStream = 5,
};

// Tries per tenant checkpoint write in SaveCheckpoints, back to back.
constexpr int kCheckpointWriteAttempts = 3;

core::JarvisConfig MakeTenantConfig(const core::JarvisConfig& base,
                                    std::uint64_t tenant_seed) {
  core::JarvisConfig config = base;
  config.seed = tenant_seed;
  config.spl.seed = util::DeriveSeed(tenant_seed, kSplStream);
  config.dqn.seed = util::DeriveSeed(tenant_seed, kDqnStream);
  return config;
}

}  // namespace

WorkloadFactory SimulatedWorkloadFactory(const fsm::EnvironmentFsm& home,
                                         SimulatedWorkloadOptions options) {
  if (options.learning_days < 1) {
    throw std::invalid_argument(
        "SimulatedWorkloadFactory: need at least 1 learning day");
  }
  return [&home, options](std::size_t /*tenant_index*/,
                          std::uint64_t tenant_seed) {
    sim::ResidentSimulator resident(
        home, sim::ThermalConfig{},
        util::DeriveSeed(tenant_seed, kResidentStream));
    const sim::ScenarioGenerator generator(
        {}, {}, {}, util::DeriveSeed(tenant_seed, kScenarioStream));
    // learning_days of natural behavior for Algorithm 1, plus one more
    // contiguous day to optimize; states carry across midnights so the
    // parser sees one gap-free stream.
    auto traces =
        resident.SimulateDays(generator, 0, options.learning_days + 1);

    TenantWorkload workload;
    workload.initial_state = resident.OvernightState();
    workload.start = util::SimTime(0);
    workload.weights = options.weights;
    workload.day = std::move(traces.back());
    traces.pop_back();

    std::vector<fsm::Episode> episodes;
    episodes.reserve(traces.size());
    for (auto& trace : traces) {
      for (const auto& event : trace.events) {
        workload.events.push_back(event);
      }
      episodes.push_back(std::move(trace.episode));
    }
    sim::AnomalyGenerator anomalies(
        home, util::DeriveSeed(tenant_seed, kAnomalyStream));
    workload.labeled = anomalies.BuildTrainingSet(
        fsm::ExtractTriggerActions(episodes),
        options.benign_anomaly_samples);
    return workload;
  };
}

Fleet::Fleet(const fsm::EnvironmentFsm& home, FleetConfig config)
    : home_(home), config_(std::move(config)), shards_(config_.tenants) {
  if (config_.tenants == 0) {
    throw std::invalid_argument("Fleet: at least one tenant");
  }
}

std::uint64_t Fleet::TenantSeed(std::size_t index) const {
  return util::DeriveSeed(config_.fleet_seed,
                          static_cast<std::uint64_t>(index));
}

void Fleet::RunTenant(std::size_t index, const WorkloadFactory& factory,
                      TenantResult& result) {
  const std::uint64_t seed = TenantSeed(index);
  result.tenant = index;
  result.seed = seed;
  std::unique_ptr<core::Jarvis> warm;
  {
    // Touch the shard only at job start (quarantine flag + staged
    // warm-start pipeline) and job end (store the trained pipeline): the
    // tenant pipeline itself runs on locals, so the fleet lock never
    // serializes tenant work.
    util::MutexLock lock(mutex_);
    TenantShard& shard = shards_[index];
    if (shard.quarantined) {
      result.quarantined = true;
      result.error = "quarantined by a previous run";
      return;
    }
    warm = std::move(shard.warm_start);
  }
  try {
    const TenantWorkload workload = [&] {
      obs::ScopedTimer timer(
          registry_.GetTimerUs("runtime.fleet.workload_us"));
      return factory(index, seed);
    }();
    // A staged pipeline (checkpoint restore) replaces the cold
    // construction. If its policies restored, the learning phase is
    // skipped entirely — the warm-start payoff; if the restore failed
    // per-section, the pipeline cold-start learns below while its health
    // still carries the failed-section accounting.
    std::shared_ptr<core::Jarvis> jarvis =
        warm != nullptr ? std::move(warm)
                        : std::make_unique<core::Jarvis>(
                              home_, MakeTenantConfig(config_.tenant_config,
                                                      seed));
    if (jarvis->learned()) {
      result.warm_started = true;
    } else {
      obs::ScopedTimer timer(registry_.GetTimerUs("runtime.fleet.learn_us"));
      result.learning_episodes =
          jarvis->LearnFromEvents(workload.events, workload.initial_state,
                                  workload.start, workload.labeled);
    }
    {
      obs::ScopedTimer timer(
          registry_.GetTimerUs("runtime.fleet.optimize_us"));
      result.plan = jarvis->OptimizeDay(workload.day, workload.weights);
    }
    result.health = jarvis->Health();
    util::MutexLock lock(mutex_);
    result.completed = true;
    shards_[index].jarvis = std::move(jarvis);
  } catch (const std::exception& error) {
    util::MutexLock lock(mutex_);
    TenantShard& shard = shards_[index];
    // Quarantine, never tear down: the shard keeps its slot (and its
    // error) while the rest of the fleet proceeds.
    result.quarantined = true;
    result.error = error.what();
    shard.quarantined = true;
    shard.jarvis.reset();
  }
}

void Fleet::ForEachTenant(const std::function<void(std::size_t)>& fn) {
  const std::size_t count = tenant_count();
  if (config_.jobs <= 1) {
    // Sequential mode: no pool, no second thread — the determinism oracle
    // parallel runs are tested against.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool pool(config_.jobs, config_.queue_capacity, &registry_);
  for (std::size_t i = 0; i < count; ++i) {
    pool.Submit([&fn, i] { fn(i); });
  }
  // Drain + join: establishes the happens-before edge that makes every
  // result slot safely readable below.
  pool.Shutdown();
}

FleetReport Fleet::Run(const WorkloadFactory& factory) {
  if (!factory) throw std::invalid_argument("Fleet::Run: null factory");
  FleetReport report;
  report.tenants.assign(tenant_count(), TenantResult{});
  // Each job writes only its own pre-allocated slot; no cross-tenant
  // synchronization beyond the pool join.
  ForEachTenant([this, &factory, &report](std::size_t i) {
    RunTenant(i, factory, report.tenants[i]);
  });

  for (const TenantResult& tenant : report.tenants) {
    if (tenant.quarantined) ++report.quarantined;
    if (!tenant.completed) continue;
    ++report.completed;
    if (tenant.warm_started) ++report.warm_started;
    if (tenant.health.degraded()) ++report.degraded;
    report.total_energy_kwh += tenant.plan.optimized_metrics.energy_kwh;
    report.total_cost_usd += tenant.plan.optimized_metrics.cost_usd;
    report.total_violations += tenant.plan.violations;
  }
  registry_.GetCounter("runtime.fleet.runs")->Increment();
  registry_.GetCounter("runtime.fleet.tenants_run")
      ->Increment(report.tenants.size());
  registry_.GetCounter("runtime.fleet.tenants_completed")
      ->Increment(report.completed);
  registry_.GetCounter("runtime.fleet.tenants_quarantined")
      ->Increment(report.quarantined);
  {
    util::MutexLock lock(mutex_);
    report_ = report;
  }
  return report;
}

FleetReport Fleet::report() const {
  util::MutexLock lock(mutex_);
  return report_;
}

obs::MetricsSnapshot Fleet::TenantMetrics(std::size_t index) const {
  // Pin the pipeline under the lock, snapshot outside it: the tenant's
  // registry is internally synchronized, and the shared_ptr keeps the
  // object alive against a concurrent re-Run.
  std::shared_ptr<core::Jarvis> jarvis;
  {
    util::MutexLock lock(mutex_);
    if (index >= shards_.size()) {
      throw std::out_of_range("Fleet::TenantMetrics: no such tenant");
    }
    jarvis = shards_[index].jarvis;
  }
  if (jarvis == nullptr) {
    throw std::logic_error("Fleet::TenantMetrics: tenant has not run");
  }
  return jarvis->TakeMetricsSnapshot();
}

obs::MetricsSnapshot Fleet::AggregateTenantMetrics() const {
  std::vector<std::shared_ptr<core::Jarvis>> tenants;
  {
    util::MutexLock lock(mutex_);
    tenants.reserve(shards_.size());
    for (const TenantShard& shard : shards_) {
      if (shard.jarvis != nullptr) tenants.push_back(shard.jarvis);
    }
  }
  std::vector<obs::MetricsSnapshot> parts;
  parts.reserve(tenants.size());
  for (const auto& jarvis : tenants) {
    parts.push_back(jarvis->TakeMetricsSnapshot());
  }
  return obs::MetricsSnapshot::Merge(parts);
}

std::vector<fsm::ActionVector> Fleet::SuggestMinutes(
    std::size_t tenant, const fsm::StateVector& state,
    const std::vector<int>& minutes) const {
  // Pin the pipeline for the whole call: a concurrent re-Run replaces the
  // shard slot but cannot destroy the object under us.
  std::shared_ptr<core::Jarvis> jarvis;
  util::Mutex* suggest_mutex = nullptr;
  {
    util::MutexLock lock(mutex_);
    if (tenant >= shards_.size()) {
      throw std::out_of_range("Fleet::SuggestMinutes: no such tenant");
    }
    jarvis = shards_[tenant].jarvis;
    suggest_mutex = &shards_[tenant].suggest_mutex;
  }
  if (jarvis == nullptr) {
    throw std::logic_error("Fleet::SuggestMinutes: tenant has not run");
  }
  const rl::DqnAgent* agent = jarvis->agent();
  const rl::IoTEnv* env = jarvis->policy_env();
  if (agent == nullptr || env == nullptr) {
    throw std::logic_error("Fleet::SuggestMinutes: tenant has no policy");
  }
  if (minutes.empty()) return {};

  // One forward per chunk of at most kSuggestChunkRows minutes. The chunk
  // bound caps the tensor a single request builds and the size the
  // tenant's inference scratch (which never shrinks) can grow to, however
  // many minutes a caller sends. PredictBatch rows are bit-identical to
  // per-row PredictOne, so each decoded action equals Jarvis::SuggestAction
  // at that minute whatever the chunking.
  std::vector<fsm::ActionVector> actions;
  actions.reserve(minutes.size());
  for (std::size_t begin = 0; begin < minutes.size();
       begin += kSuggestChunkRows) {
    const std::size_t rows =
        std::min(kSuggestChunkRows, minutes.size() - begin);
    // Features and masks are pure functions of (state, minute): built
    // before the lock, so same-tenant callers only serialize on the
    // forward.
    neural::Tensor batch(rows, env->feature_width());
    std::vector<std::vector<bool>> masks;
    masks.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      batch.SetRow(i, env->FeaturesFor(state, minutes[begin + i]));
      masks.push_back(env->SafeSlotMaskFor(state, minutes[begin + i]));
    }
    // The network's inference scratch is shared per tenant, hence the
    // per-tenant lock around forward and decode (the decode reads the
    // scratch result in place).
    util::MutexLock suggest_lock(*suggest_mutex);
    const neural::Tensor& q = agent->network().PredictBatchScratch(batch);
    for (std::size_t i = 0; i < rows; ++i) {
      actions.push_back(agent->GreedyActionFromQ(q.RowVector(i), masks[i]));
    }
  }
  return actions;
}

const core::Jarvis* Fleet::tenant(std::size_t index) const {
  util::MutexLock lock(mutex_);
  if (index >= shards_.size()) return nullptr;
  return shards_[index].jarvis.get();
}

std::string Fleet::TenantCheckpointPath(const std::string& dir,
                                        std::size_t tenant) {
  return dir + "/tenant-" + std::to_string(tenant) + ".ckpt";
}

FleetCheckpointReport Fleet::SaveCheckpoints(
    const std::string& dir, util::io::WriteInterceptor* interceptor) {
  util::io::CreateDirectories(dir);
  FleetCheckpointReport report;
  report.tenants.assign(tenant_count(), TenantCheckpointResult{});
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    TenantCheckpointResult& result = report.tenants[i];
    result.tenant = i;
    // Pinned across the write attempts: a re-Run mid-save only replaces
    // the slot, it cannot free the pipeline being serialized.
    std::shared_ptr<const core::Jarvis> jarvis;
    {
      util::MutexLock lock(mutex_);
      jarvis = shards_[i].jarvis;
    }
    if (jarvis == nullptr) {
      ++report.skipped;
      continue;
    }
    result.attempted = true;
    while (!result.succeeded &&
           result.write_attempts < kCheckpointWriteAttempts) {
      ++result.write_attempts;
      try {
        jarvis->SaveCheckpoint(TenantCheckpointPath(dir, i), nullptr,
                               interceptor);
        result.succeeded = true;
        result.error.clear();
      } catch (const util::io::IoError& io_error) {
        result.error = io_error.what();
      }
    }
    if (result.succeeded) {
      ++report.succeeded;
    } else {
      ++report.failed;
    }
  }
  return report;
}

FleetCheckpointReport Fleet::RestoreCheckpoints(const std::string& dir) {
  FleetCheckpointReport report;
  report.tenants.assign(tenant_count(), TenantCheckpointResult{});
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    TenantCheckpointResult& result = report.tenants[i];
    result.tenant = i;
    if (!util::io::FileExists(TenantCheckpointPath(dir, i))) {
      ++report.skipped;
      continue;
    }
    result.attempted = true;
    auto jarvis = std::make_unique<core::Jarvis>(
        home_, MakeTenantConfig(config_.tenant_config, TenantSeed(i)));
    result.restore = jarvis->LoadCheckpoint(TenantCheckpointPath(dir, i));
    if (result.restore.spl_restored) {
      result.succeeded = true;
      ++report.succeeded;
    } else {
      result.error = persist::FormatIssues(result.restore.issues);
      ++report.failed;
    }
    // Stage even on failure: the pipeline carries the failed-restore
    // health accounting, and its next Run cold-start learns.
    util::MutexLock lock(mutex_);
    shards_[i].warm_start = std::move(jarvis);
    shards_[i].quarantined = false;
  }
  return report;
}

}  // namespace jarvis::runtime
