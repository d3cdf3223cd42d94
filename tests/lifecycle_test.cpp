// Durable learned-state lifecycle (DESIGN.md §14): checkpoint round trips,
// crash recovery against the jobs=1 oracle, storage-fault chaos, monitor
// deny-until-reestablished, and dynamic tenant add/remove with warm starts.
//
// The acceptance contract pinned here: a fleet killed after checkpointing
// and restored from disk re-optimizes with BIT-IDENTICAL deterministic
// metrics to an uninterrupted sequential run, commits zero violations, and
// every injected storage fault is detected (checksums/lengths) and
// degrades per-section to fail-safe — never a crash, never silent garbage.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/jarvis.h"
#include "core/online_monitor.h"
#include "faults/storage.h"
#include "fsm/device_library.h"
#include "persist/checkpoint.h"
#include "runtime/fleet.h"
#include "scratch_dir.h"
#include "util/io.h"
#include "util/rng.h"

namespace jarvis {
namespace {

using core::Jarvis;
using core::JarvisConfig;
using runtime::Fleet;
using runtime::FleetCheckpointReport;
using runtime::FleetConfig;
using runtime::FleetReport;
using runtime::SimulatedWorkloadFactory;
using runtime::SimulatedWorkloadOptions;
using runtime::TenantWorkload;

// Tiny pipelines: lifecycle mechanics, not policy quality, are under test.
FleetConfig CheapConfig(std::size_t tenants, std::size_t jobs) {
  FleetConfig config;
  config.tenants = tenants;
  config.jobs = jobs;
  config.fleet_seed = 77;
  config.tenant_config.restarts = 1;
  config.tenant_config.trainer.episodes = 2;
  config.tenant_config.trainer.demonstration_episodes = 1;
  config.tenant_config.dqn.hidden_units = {8, 8};
  config.tenant_config.dqn.batch_size = 16;
  config.tenant_config.spl.ann.epochs = 3;
  return config;
}

std::uint64_t Counter(const Jarvis& jarvis, const std::string& name) {
  return jarvis.TakeMetricsSnapshot().CounterValue(name);
}

SimulatedWorkloadOptions CheapWorkload() {
  SimulatedWorkloadOptions options;
  options.learning_days = 2;
  options.benign_anomaly_samples = 200;
  return options;
}

class LifecycleFixture : public ::testing::Test {
 protected:
  static const fsm::EnvironmentFsm& Home() {
    static const fsm::EnvironmentFsm home = fsm::BuildFullHome();
    return home;
  }

  // A directory under this test's own scratch root (removed when the
  // test ends).
  std::string ScratchDir(const std::string& tag) const {
    return scratch_.path() + "/" + tag;
  }

 private:
  const testing_util::ScratchDir scratch_{"lifecycle"};
};

// Restored-vs-oracle comparison: learning_episodes is deliberately absent
// (a warm-started tenant skips the learning phase), everything the
// optimized day produced must match bit-for-bit.
void ExpectPlansIdentical(const FleetReport& oracle,
                          const FleetReport& restored) {
  ASSERT_EQ(oracle.tenants.size(), restored.tenants.size());
  for (std::size_t i = 0; i < oracle.tenants.size(); ++i) {
    const runtime::TenantResult& a = oracle.tenants[i];
    const runtime::TenantResult& b = restored.tenants[i];
    SCOPED_TRACE(::testing::Message() << "tenant " << i);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.plan.optimized_metrics.energy_kwh,
              b.plan.optimized_metrics.energy_kwh);
    EXPECT_EQ(a.plan.optimized_metrics.cost_usd,
              b.plan.optimized_metrics.cost_usd);
    EXPECT_EQ(a.plan.optimized_metrics.comfort_error_c_min,
              b.plan.optimized_metrics.comfort_error_c_min);
    EXPECT_EQ(a.plan.normal_metrics.energy_kwh,
              b.plan.normal_metrics.energy_kwh);
    EXPECT_EQ(a.plan.violations, b.plan.violations);
    EXPECT_EQ(a.plan.train.greedy_reward, b.plan.train.greedy_reward);
    EXPECT_EQ(a.plan.train.episode_rewards, b.plan.train.episode_rewards);
  }
  EXPECT_EQ(oracle.total_energy_kwh, restored.total_energy_kwh);
  EXPECT_EQ(oracle.total_cost_usd, restored.total_cost_usd);
  EXPECT_EQ(oracle.total_violations, restored.total_violations);
}

TEST_F(LifecycleFixture, JarvisCheckpointRoundTripRestoresLearnedState) {
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  const TenantWorkload workload = factory(0, 11);

  JarvisConfig config = CheapConfig(1, 1).tenant_config;
  Jarvis original(Home(), config);
  ASSERT_GT(original.LearnFromEvents(workload.events, workload.initial_state,
                                     workload.start, workload.labeled),
            0u);
  const core::DayPlan original_plan =
      original.OptimizeDay(workload.day, workload.weights);

  const std::string path = ScratchDir("roundtrip") + "/jarvis.ckpt";
  util::io::CreateDirectories(ScratchDir("roundtrip"));
  original.SaveCheckpoint(path);

  // The default config never warm-starts, so the DQN section stays
  // unread: counted neither restored nor failed.
  Jarvis restored(Home(), config);
  const Jarvis::RestoreReport report = restored.LoadCheckpoint(path);
  EXPECT_TRUE(report.file_found);
  EXPECT_TRUE(report.meta_valid);
  EXPECT_TRUE(report.spl_restored);
  EXPECT_FALSE(report.dqn_staged);
  EXPECT_TRUE(report.issues.empty()) << persist::FormatIssues(report.issues);
  EXPECT_EQ(report.sections_restored, 1u);
  EXPECT_EQ(report.sections_failed, 0u);
  ASSERT_TRUE(restored.learned());
  // The whitelist survives the trip bit-for-bit (%.17g FP round trip), so
  // a restored pipeline audits exactly like the one that learned.
  EXPECT_EQ(restored.learner().ToJson().Dump(),
            original.learner().ToJson().Dump());
  EXPECT_EQ(Counter(restored, "core.jarvis.checkpoint_sections_restored"),
            1u);
  EXPECT_EQ(Counter(restored, "core.jarvis.checkpoint_sections_failed"), 0u);

  // A warm-starting config stages the DQN too.
  JarvisConfig warm_config = config;
  warm_config.warm_start_dqn = true;
  Jarvis warm(Home(), warm_config);
  const Jarvis::RestoreReport warm_report = warm.LoadCheckpoint(path);
  EXPECT_TRUE(warm_report.dqn_staged);
  EXPECT_EQ(warm_report.sections_restored, 2u);
  EXPECT_EQ(Counter(warm, "core.jarvis.checkpoint_sections_restored"), 2u);

  // Cold-path parity: the restored pipeline's OptimizeDay reproduces the
  // original's day plan exactly (warm_start_dqn is off by default).
  const core::DayPlan restored_plan =
      restored.OptimizeDay(workload.day, workload.weights);
  EXPECT_EQ(restored_plan.optimized_metrics.energy_kwh,
            original_plan.optimized_metrics.energy_kwh);
  EXPECT_EQ(restored_plan.optimized_metrics.cost_usd,
            original_plan.optimized_metrics.cost_usd);
  EXPECT_EQ(restored_plan.train.greedy_reward,
            original_plan.train.greedy_reward);
  EXPECT_EQ(restored_plan.violations, original_plan.violations);

  // Missing-file recovery: a cold start, reported, never thrown.
  Jarvis cold(Home(), config);
  const Jarvis::RestoreReport missing =
      cold.LoadCheckpoint(ScratchDir("roundtrip") + "/nonexistent.ckpt");
  EXPECT_FALSE(missing.file_found);
  EXPECT_FALSE(cold.learned());
}

TEST_F(LifecycleFixture, TrailingBytesAreIgnoredWithoutDegradingHealth) {
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  const TenantWorkload workload = factory(0, 13);
  JarvisConfig config = CheapConfig(1, 1).tenant_config;
  Jarvis original(Home(), config);
  ASSERT_GT(original.LearnFromEvents(workload.events, workload.initial_state,
                                     workload.start, workload.labeled),
            0u);

  // Every section verifies; only bytes after the last one are extra.
  const std::string dir = ScratchDir("trailing");
  util::io::CreateDirectories(dir);
  const std::string path = dir + "/jarvis.ckpt";
  util::io::AtomicWriteFile(path,
                            original.MakeCheckpoint().Serialize() + "junk");

  Jarvis restored(Home(), config);
  const Jarvis::RestoreReport report = restored.LoadCheckpoint(path);
  EXPECT_TRUE(report.meta_valid);
  EXPECT_TRUE(report.spl_restored);
  EXPECT_EQ(report.sections_failed, 0u);
  EXPECT_EQ(report.issues.size(), 1u) << persist::FormatIssues(report.issues);
  EXPECT_EQ(Counter(restored, "core.jarvis.checkpoint_sections_failed"), 0u);
  EXPECT_FALSE(core::Degraded(restored.TakeMetricsSnapshot()));
}

TEST_F(LifecycleFixture, TruncationCountsEverySectionItLost) {
  // A file cut inside the spl payload loses spl AND the dqn section after
  // it: two failed sections, not one container issue.
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  const TenantWorkload workload = factory(0, 17);
  JarvisConfig config = CheapConfig(1, 1).tenant_config;
  Jarvis original(Home(), config);
  ASSERT_GT(original.LearnFromEvents(workload.events, workload.initial_state,
                                     workload.start, workload.labeled),
            0u);
  original.OptimizeDay(workload.day, workload.weights);
  const persist::Checkpoint checkpoint = original.MakeCheckpoint();
  ASSERT_TRUE(checkpoint.HasSection("dqn"));
  const std::string bytes = checkpoint.Serialize();
  const std::string& spl = *checkpoint.FindSection("spl");
  const std::size_t spl_at = bytes.find(spl);
  ASSERT_NE(spl_at, std::string::npos);

  const std::string dir = ScratchDir("truncated");
  util::io::CreateDirectories(dir);
  const std::string path = dir + "/jarvis.ckpt";
  util::io::AtomicWriteFile(path, bytes.substr(0, spl_at + spl.size() / 2));

  Jarvis restored(Home(), config);
  const Jarvis::RestoreReport report = restored.LoadCheckpoint(path);
  EXPECT_TRUE(report.meta_valid);
  EXPECT_FALSE(report.spl_restored);
  EXPECT_FALSE(report.dqn_staged);
  EXPECT_EQ(report.sections_failed, 2u) << persist::FormatIssues(report.issues);
  EXPECT_EQ(Counter(restored, "core.jarvis.checkpoint_sections_failed"), 2u);
  EXPECT_TRUE(core::Degraded(restored.TakeMetricsSnapshot()));
}

TEST_F(LifecycleFixture, CrashRecoveryMatchesUninterruptedOracle) {
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  const std::string dir = ScratchDir("crash");

  // The uninterrupted sequential oracle.
  Fleet oracle(Home(), CheapConfig(2, 1));
  const FleetReport oracle_report = oracle.Run(factory);
  ASSERT_EQ(oracle_report.completed, 2u);
  ASSERT_EQ(oracle_report.quarantined, 0u);
  EXPECT_EQ(oracle_report.total_violations, 0u);
  for (const auto& tenant : oracle_report.tenants) {
    // One learning episode per simulated day: what a warm start skips.
    EXPECT_EQ(tenant.learning_episodes,
              static_cast<std::size_t>(CheapWorkload().learning_days));
  }

  // The doomed fleet: learn + optimize, checkpoint every tenant, then die
  // (scope exit — the process state is gone, only the files survive).
  {
    Fleet doomed(Home(), CheapConfig(2, 1));
    ASSERT_EQ(doomed.Run(factory).completed, 2u);
    const FleetCheckpointReport saved = doomed.SaveCheckpoints(dir);
    ASSERT_EQ(saved.succeeded, 2u);
    ASSERT_EQ(saved.failed, 0u);
    for (const auto& tenant : saved.tenants) {
      EXPECT_EQ(tenant.write_attempts, 1);
    }
  }

  // Recovery: a fresh fleet restores from disk and re-runs.
  Fleet recovered(Home(), CheapConfig(2, 1));
  const FleetCheckpointReport restored = recovered.RestoreCheckpoints(dir);
  ASSERT_EQ(restored.succeeded, 2u);
  ASSERT_EQ(restored.failed, 0u);
  for (const auto& tenant : restored.tenants) {
    EXPECT_TRUE(tenant.restore.spl_restored);
    EXPECT_TRUE(tenant.restore.meta_valid);
    EXPECT_EQ(tenant.restore.sections_failed, 0u)
        << persist::FormatIssues(tenant.restore.issues);
  }

  const FleetReport rerun = recovered.Run(factory);
  EXPECT_EQ(rerun.completed, 2u);
  EXPECT_EQ(rerun.warm_started, 2u);
  for (const auto& tenant : rerun.tenants) {
    EXPECT_TRUE(tenant.warm_started);
    EXPECT_EQ(tenant.learning_episodes, 0u);  // learning phase skipped
  }

  // The restored fleet commits zero violations and reproduces the oracle's
  // optimized day bit-for-bit.
  EXPECT_EQ(rerun.total_violations, 0u);
  ExpectPlansIdentical(oracle_report, rerun);
}

TEST_F(LifecycleFixture, EveryStorageFaultKindIsDetectedAndDegradesFailSafe) {
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());

  const struct {
    faults::StorageFaultKind kind;
    const char* tag;
  } kinds[] = {
      {faults::StorageFaultKind::kTornWrite, "torn"},
      {faults::StorageFaultKind::kTruncation, "trunc"},
      {faults::StorageFaultKind::kBitFlip, "bitflip"},
      {faults::StorageFaultKind::kRenameFail, "rename"},
  };

  for (const auto& entry : kinds) {
    SCOPED_TRACE(faults::StorageFaultKindName(entry.kind));
    const std::string dir = ScratchDir(std::string("fault_") + entry.tag);

    Fleet fleet(Home(), CheapConfig(1, 1));
    ASSERT_EQ(fleet.Run(factory).completed, 1u);

    faults::StorageFaultSpec spec;
    spec.kind = entry.kind;
    spec.rate = 1.0;
    spec.keep_fraction = 0.5;
    spec.bit_flips = 16;
    faults::StorageFaultInjector injector({spec}, 99);

    const FleetCheckpointReport saved = fleet.SaveCheckpoints(dir, &injector);
    EXPECT_GE(injector.counters().total(), 1u);

    if (entry.kind == faults::StorageFaultKind::kRenameFail) {
      // Crash-before-commit: the write fails visibly after its three
      // attempts and no file exists — restore is a clean cold start.
      ASSERT_EQ(saved.failed, 1u);
      EXPECT_FALSE(saved.tenants[0].error.empty());
      EXPECT_EQ(saved.tenants[0].write_attempts, 3);
      EXPECT_FALSE(
          util::io::FileExists(Fleet::TenantCheckpointPath(dir, 0)));

      Fleet recovered(Home(), CheapConfig(1, 1));
      const FleetCheckpointReport restored = recovered.RestoreCheckpoints(dir);
      EXPECT_EQ(restored.succeeded, 0u);
      EXPECT_FALSE(restored.tenants[0].restore.file_found);
      const FleetReport rerun = recovered.Run(factory);
      EXPECT_EQ(rerun.completed, 1u);
      EXPECT_EQ(rerun.warm_started, 0u);  // cold start, learning re-ran
      EXPECT_EQ(rerun.total_violations, 0u);
      continue;
    }

    // Corrupting kinds: the bytes land, but restore must DETECT the damage
    // (checksums / bounded lengths), degrade per-section, and never trust
    // a corrupt section or crash.
    ASSERT_EQ(saved.succeeded, 1u);
    Fleet recovered(Home(), CheapConfig(1, 1));
    const FleetCheckpointReport restored = recovered.RestoreCheckpoints(dir);
    const auto& result = restored.tenants[0];
    EXPECT_TRUE(result.restore.file_found);
    const bool damage_visible = !result.restore.issues.empty() ||
                                result.restore.sections_failed > 0 ||
                                !result.restore.spl_restored;
    EXPECT_TRUE(damage_visible)
        << "fault landed but restore reported a clean full recovery";

    // Whatever was lost, the tenant still serves: a cold (or partially
    // restored) re-run completes with zero violations, and the restore
    // degradation is visible in its metrics.
    const FleetReport rerun = recovered.Run(factory);
    EXPECT_EQ(rerun.completed, 1u);
    EXPECT_EQ(rerun.quarantined, 0u);
    EXPECT_EQ(rerun.total_violations, 0u);
    if (result.restore.sections_failed > 0) {
      EXPECT_GT(recovered.TenantMetrics(0).CounterValue(
                    "core.jarvis.checkpoint_sections_failed"),
                0u);
      EXPECT_TRUE(rerun.tenants[0].degraded);
      EXPECT_GT(rerun.degraded, 0u);
    }
  }
}

TEST_F(LifecycleFixture, RestoredMonitorDeniesUntilStateReestablished) {
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  const TenantWorkload workload = factory(0, 5);

  JarvisConfig config = CheapConfig(1, 1).tenant_config;
  Jarvis pipeline(Home(), config);
  ASSERT_GT(pipeline.LearnFromEvents(workload.events, workload.initial_state,
                                     workload.start, workload.labeled),
            0u);

  // Live monitor: replay the day, remember the first classified command.
  core::OnlineMonitor live(Home(), pipeline.learner(), workload.initial_state);
  const events::Event* command = nullptr;
  for (const events::Event& event : workload.events) {
    if (live.Consume(event).has_value() && command == nullptr) {
      command = &event;
    }
  }
  ASSERT_NE(command, nullptr) << "workload contained no command events";
  ASSERT_GT(live.events_consumed(), 0u);

  // Checkpoint with the monitor section, then restore into a fresh one.
  const persist::Checkpoint checkpoint = pipeline.MakeCheckpoint(&live);
  ASSERT_TRUE(checkpoint.HasSection("monitor"));

  // Two-phase recovery: the monitor's constructor requires a *learned*
  // learner, so the pipeline restores first, the monitor is built against
  // the restored learner, and a second pass picks up the monitor section
  // (sections restore independently, and re-restoring spl is idempotent).
  Jarvis restored_pipeline(Home(), config);
  ASSERT_TRUE(restored_pipeline.RestoreFrom(checkpoint).spl_restored);
  core::OnlineMonitor restored(Home(), restored_pipeline.learner(),
                               workload.initial_state);
  const Jarvis::RestoreReport report =
      restored_pipeline.RestoreFrom(checkpoint, &restored);
  EXPECT_TRUE(report.monitor_restored);
  EXPECT_EQ(restored.events_consumed(), live.events_consumed());
  EXPECT_EQ(restored.violations(), live.violations());
  EXPECT_EQ(restored.state(), live.state());

  // Deny-unsafe after restore: events may have happened during the crash
  // gap, so every device is untrusted until it reports again — the first
  // command is denied fail-safe, not classified against stale state.
  const std::size_t denials_before = restored.unknown_state_denials();
  const auto verdict = restored.Consume(*command);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, spl::Verdict::kViolation);
  EXPECT_EQ(restored.unknown_state_denials(), denials_before + 1);
}

}  // namespace
}  // namespace jarvis
