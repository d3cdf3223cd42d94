// Fleet determinism and containment contracts (DESIGN.md §10):
//   * per-tenant results are identical for any worker count — jobs=1 is
//     the sequential oracle the parallel schedule must reproduce;
//   * a throwing tenant is quarantined and counted, never fatal, whatever
//     it throws;
//   * the batched SuggestMinutes path equals per-minute SuggestAction, also
//     under concurrent callers and a racing re-Run.
#include "runtime/fleet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fsm/device_library.h"
#include "sim/resident.h"
#include "util/rng.h"
#include "util/timeofday.h"

namespace jarvis::runtime {
namespace {

// Deliberately tiny tenant pipelines: the contracts under test are about
// scheduling and determinism, not policy quality.
FleetConfig CheapConfig(std::size_t tenants, std::size_t jobs) {
  FleetConfig config;
  config.tenants = tenants;
  config.jobs = jobs;
  config.fleet_seed = 2024;
  config.tenant_config.restarts = 1;
  config.tenant_config.trainer.episodes = 2;
  config.tenant_config.trainer.demonstration_episodes = 1;
  config.tenant_config.dqn.hidden_units = {8, 8};
  config.tenant_config.dqn.batch_size = 16;
  config.tenant_config.spl.ann.epochs = 3;
  return config;
}

SimulatedWorkloadOptions CheapWorkload() {
  SimulatedWorkloadOptions options;
  options.learning_days = 2;
  options.benign_anomaly_samples = 200;
  return options;
}

class FleetFixture : public ::testing::Test {
 protected:
  static const fsm::EnvironmentFsm& Home() {
    static const fsm::EnvironmentFsm home = fsm::BuildFullHome();
    return home;
  }
};

void ExpectTenantResultsIdentical(const FleetReport& oracle,
                                  const FleetReport& parallel) {
  ASSERT_EQ(oracle.tenants.size(), parallel.tenants.size());
  for (std::size_t i = 0; i < oracle.tenants.size(); ++i) {
    const TenantResult& a = oracle.tenants[i];
    const TenantResult& b = parallel.tenants[i];
    SCOPED_TRACE(::testing::Message() << "tenant " << i);
    EXPECT_EQ(a.tenant, b.tenant);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.quarantined, b.quarantined);
    EXPECT_EQ(a.learning_episodes, b.learning_episodes);
    // DayPlan metrics: exact FP equality, not tolerances — the worker
    // count must not perturb a single operation in any tenant pipeline.
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
    EXPECT_EQ(a.degraded, b.degraded);
  }
  EXPECT_EQ(oracle.completed, parallel.completed);
  EXPECT_EQ(oracle.degraded, parallel.degraded);
  EXPECT_EQ(oracle.quarantined, parallel.quarantined);
  EXPECT_EQ(oracle.total_energy_kwh, parallel.total_energy_kwh);
  EXPECT_EQ(oracle.total_cost_usd, parallel.total_cost_usd);
  EXPECT_EQ(oracle.total_violations, parallel.total_violations);
}

TEST_F(FleetFixture, SixteenTenantParallelRunMatchesSequentialOracle) {
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());

  Fleet oracle(Home(), CheapConfig(16, 1));
  const FleetReport sequential = oracle.Run(factory);
  ASSERT_EQ(sequential.completed, 16u);
  ASSERT_EQ(sequential.quarantined, 0u);
  // Clean simulated logs, no restores: nothing lost, skipped or recovered.
  EXPECT_EQ(sequential.degraded, 0u);

  Fleet parallel(Home(), CheapConfig(16, 8));
  const FleetReport threaded = parallel.Run(factory);

  ExpectTenantResultsIdentical(sequential, threaded);
}

TEST_F(FleetFixture, TenantSeedsDeriveFromFleetSeed) {
  Fleet fleet(Home(), CheapConfig(4, 1));
  // The factory sees each tenant's seed; throwing quarantines the tenant
  // before any pipeline work.
  std::vector<std::uint64_t> seen(4, 0);
  const FleetReport report =
      fleet.Run([&seen](std::size_t tenant, std::uint64_t seed)
                    -> TenantWorkload {
        seen[tenant] = seed;
        throw std::runtime_error("seed probe");
      });
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[i], util::DeriveSeed(2024, static_cast<std::uint64_t>(i)));
    EXPECT_EQ(report.tenants[i].seed, seen[i]);
  }
  EXPECT_NE(seen[0], seen[1]);
}

TEST_F(FleetFixture, ThrowingTenantIsQuarantinedNotFatal) {
  const auto good = SimulatedWorkloadFactory(Home(), CheapWorkload());
  const WorkloadFactory factory = [&good](std::size_t tenant,
                                          std::uint64_t seed) {
    if (tenant == 2) {
      throw std::runtime_error("tenant 2 has a corrupt event log");
    }
    return good(tenant, seed);
  };

  Fleet fleet(Home(), CheapConfig(4, 2));
  const FleetReport report = fleet.Run(factory);
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_TRUE(report.tenants[2].quarantined);
  EXPECT_EQ(report.tenants[2].error, "tenant 2 has a corrupt event log");
  EXPECT_FALSE(report.tenants[2].completed);
  EXPECT_EQ(fleet.tenant(2), nullptr);
  for (std::size_t i : {0u, 1u, 3u}) {
    EXPECT_TRUE(report.tenants[i].completed);
    EXPECT_NE(fleet.tenant(i), nullptr);
  }

  // A re-run skips the quarantined shard instead of retrying it.
  const FleetReport rerun = fleet.Run(good);
  EXPECT_EQ(rerun.completed, 3u);
  EXPECT_EQ(rerun.quarantined, 1u);
  EXPECT_EQ(rerun.tenants[2].error, "quarantined by a previous run");
}

TEST_F(FleetFixture, NonStandardThrowIsQuarantinedAtEveryJobCount) {
  // A throwable that is not a std::exception quarantines its tenant like
  // any other failure, inline (jobs = 1) and on threads alike.
  const auto good = SimulatedWorkloadFactory(Home(), CheapWorkload());
  const WorkloadFactory factory = [&good](std::size_t tenant,
                                          std::uint64_t seed) {
    if (tenant == 1) throw 42;  // NOLINT(hicpp-exception-baseclass)
    return good(tenant, seed);
  };
  Fleet oracle(Home(), CheapConfig(4, 1));
  Fleet parallel(Home(), CheapConfig(4, 4));
  const FleetReport sequential = oracle.Run(factory);
  const FleetReport threaded = parallel.Run(factory);
  EXPECT_EQ(sequential.completed, 3u);
  EXPECT_EQ(sequential.quarantined, 1u);
  EXPECT_TRUE(sequential.tenants[1].quarantined);
  EXPECT_EQ(sequential.tenants[1].error, "non-standard exception");
  EXPECT_EQ(threaded.tenants[1].error, "non-standard exception");
  ExpectTenantResultsIdentical(sequential, threaded);
}

TEST_F(FleetFixture, SuggestMinutesMatchesPerMinuteSuggestAction) {
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  Fleet fleet(Home(), CheapConfig(2, 2));
  ASSERT_EQ(fleet.Run(factory).completed, 2u);

  sim::ResidentSimulator resident(Home(), sim::ThermalConfig{}, 1);
  const fsm::StateVector state = resident.OvernightState();
  const std::vector<int> minutes = {0, 60, 6 * 60, 12 * 60, 23 * 60};
  for (std::size_t tenant = 0; tenant < 2; ++tenant) {
    const auto batched = fleet.SuggestMinutes(tenant, state, minutes);
    ASSERT_EQ(batched.size(), minutes.size());
    for (std::size_t i = 0; i < minutes.size(); ++i) {
      EXPECT_EQ(batched[i],
                fleet.tenant(tenant)->SuggestAction(state, minutes[i]))
          << "tenant " << tenant << " minute " << minutes[i];
    }
  }
  EXPECT_THROW(fleet.SuggestMinutes(99, state, minutes), std::out_of_range);
}

TEST_F(FleetFixture, SuggestMinutesBeyondOneChunkMatchesPerMinute) {
  // A whole day is more minutes than one forward takes: the answer is
  // assembled from several chunks (the last one partial) and still equals
  // per-minute SuggestAction in order. The wider network makes the greedy
  // action change over the day, so a chunk decoded against the wrong
  // minutes shows.
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  FleetConfig config = CheapConfig(1, 1);
  config.tenant_config.dqn.hidden_units = {32, 32};
  Fleet fleet(Home(), config);
  ASSERT_EQ(fleet.Run(factory).completed, 1u);

  sim::ResidentSimulator resident(Home(), sim::ThermalConfig{}, 1);
  const fsm::StateVector state = resident.OvernightState();
  std::vector<int> minutes(1440);
  for (std::size_t i = 0; i < minutes.size(); ++i) {
    minutes[i] = static_cast<int>(i);
  }
  ASSERT_GT(minutes.size(), Fleet::kSuggestChunkRows);
  ASSERT_NE(minutes.size() % Fleet::kSuggestChunkRows, 0u);
  const auto batched = fleet.SuggestMinutes(0, state, minutes);
  ASSERT_EQ(batched.size(), minutes.size());
  std::set<fsm::ActionVector> distinct;
  for (std::size_t i = 0; i < minutes.size(); ++i) {
    const fsm::ActionVector expected =
        fleet.tenant(0)->SuggestAction(state, minutes[i]);
    distinct.insert(expected);
    ASSERT_EQ(batched[i], expected) << "minute " << minutes[i];
  }
  EXPECT_GT(distinct.size(), 1u) << "the policy answers every minute alike";
}

TEST_F(FleetFixture, TenantMetricsIdenticalAcrossWorkerCounts) {
  // Tenant-level metrics are observational AND deterministic: each tenant
  // Jarvis owns its registry, so its deterministic snapshot is a pure
  // function of the tenant seed — bit-identical whether the fleet ran
  // sequentially or across 4 workers.
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  Fleet oracle(Home(), CheapConfig(4, 1));
  Fleet parallel(Home(), CheapConfig(4, 4));
  ASSERT_EQ(oracle.Run(factory).completed, 4u);
  ASSERT_EQ(parallel.Run(factory).completed, 4u);

  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(::testing::Message() << "tenant " << i);
    const obs::MetricsSnapshot a = oracle.TenantMetrics(i).DeterministicOnly();
    const obs::MetricsSnapshot b =
        parallel.TenantMetrics(i).DeterministicOnly();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(oracle.AggregateTenantMetrics().DeterministicOnly(),
            parallel.AggregateTenantMetrics().DeterministicOnly());
}

TEST_F(FleetFixture, FleetLevelMetricsAndPhaseTimers) {
  const auto good = SimulatedWorkloadFactory(Home(), CheapWorkload());
  const WorkloadFactory factory = [&good](std::size_t tenant,
                                          std::uint64_t seed) {
    if (tenant == 1) throw std::runtime_error("boom");
    return good(tenant, seed);
  };
  Fleet fleet(Home(), CheapConfig(3, 2));
  fleet.Run(factory);

  const obs::MetricsSnapshot fleet_metrics = fleet.TakeMetricsSnapshot();
  EXPECT_EQ(fleet_metrics.CounterValue("runtime.fleet.runs"), 1u);
  EXPECT_EQ(fleet_metrics.CounterValue("runtime.fleet.tenants_run"), 3u);
  EXPECT_EQ(fleet_metrics.CounterValue("runtime.fleet.tenants_completed"),
            2u);
  EXPECT_EQ(fleet_metrics.CounterValue("runtime.fleet.tenants_quarantined"),
            1u);

  // Phase timers: every attempted tenant entered the workload phase (the
  // quarantined one threw there); learn and optimize ran for the other two.
  EXPECT_EQ(fleet_metrics.FindHistogram("runtime.fleet.workload_us").count,
            3u);
  EXPECT_EQ(fleet_metrics.FindHistogram("runtime.fleet.learn_us").count, 2u);
  EXPECT_EQ(fleet_metrics.FindHistogram("runtime.fleet.optimize_us").count,
            2u);

  // TenantMetrics guards: quarantined tenant never built a pipeline.
  EXPECT_THROW(fleet.TenantMetrics(1), std::logic_error);
  EXPECT_THROW(fleet.TenantMetrics(99), std::out_of_range);
}

TEST_F(FleetFixture, ReportSnapshotIsSafeWhileRunIsInFlight) {
  // Regression: report() used to hand back a const reference into state the
  // running fleet mutates — a racing reader saw a vector being resized
  // under it. It now returns a by-value snapshot taken under the fleet
  // lock, so polling mid-Run is safe (the snapshot is simply the previous
  // Run's report until the new one lands).
  Fleet fleet(Home(), CheapConfig(3, 2));
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  std::atomic<bool> done{false};
  std::thread poller([&fleet, &done] {
    while (!done.load()) {
      const FleetReport snapshot = fleet.report();
      EXPECT_TRUE(snapshot.tenants.empty() || snapshot.tenants.size() == 3u);
      const std::size_t tenants = fleet.tenant_count();
      EXPECT_EQ(tenants, 3u);
    }
  });
  const FleetReport report = fleet.Run(factory);
  done.store(true);
  poller.join();
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(fleet.report().tenants.size(), 3u);
}

// Concurrent suggestion traffic across tenants AND within one tenant:
// distinct tenants run their forwards in parallel, same-tenant callers
// serialize on the tenant's suggest lock (they share the network's
// inference scratch), and every answer stays bit-identical to the
// single-threaded one. Raced for real under TSan (label `runtime`).
TEST_F(FleetFixture, ConcurrentCrossTenantSuggestsStayExact) {
  Fleet fleet(Home(), CheapConfig(3, 2));
  ASSERT_EQ(fleet.Run(SimulatedWorkloadFactory(Home(), CheapWorkload()))
                .completed,
            3u);

  sim::ResidentSimulator resident(Home(), sim::ThermalConfig{}, 2026);
  const fsm::StateVector overnight = resident.OvernightState();
  const std::vector<int> minutes = {0, 120, 480, 481, 720, 1200, 1439};
  std::vector<std::vector<fsm::ActionVector>> expected;
  for (std::size_t tenant = 0; tenant < 3; ++tenant) {
    expected.push_back(fleet.SuggestMinutes(tenant, overnight, minutes));
  }

  std::vector<std::thread> threads;
  for (std::size_t caller = 0; caller < 6; ++caller) {
    const std::size_t tenant = caller % 3;  // two callers per tenant
    threads.emplace_back([&, tenant] {
      for (int iteration = 0; iteration < 5; ++iteration) {
        const auto actions = fleet.SuggestMinutes(tenant, overnight, minutes);
        ASSERT_EQ(actions.size(), minutes.size());
        for (std::size_t i = 0; i < minutes.size(); ++i) {
          EXPECT_EQ(actions[i], expected[tenant][i])
              << "tenant " << tenant << " minute " << minutes[i];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

// A re-Run racing live SuggestMinutes traffic. A suggest call pins the
// tenant's pipeline with a shared_ptr, so the re-run swapping in a fresh
// pipeline replaces the shard slot without destroying the network a
// forward is reading. One suggester per tenant asks for a whole day per
// call, so when a tenant's pipeline is replaced its suggester is almost
// surely mid-call. Run under TSan/ASan (label `runtime`), where a dangling
// pipeline is a hard failure.
TEST_F(FleetFixture, ReRunWhileSuggestInFlightIsSafe) {
  constexpr std::size_t kTenants = 6;
  Fleet fleet(Home(), CheapConfig(kTenants, 3));
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  ASSERT_EQ(fleet.Run(factory).completed, kTenants);

  sim::ResidentSimulator resident(Home(), sim::ThermalConfig{}, 1);
  const fsm::StateVector state = resident.OvernightState();
  std::vector<int> minutes(util::kMinutesPerDay);
  std::iota(minutes.begin(), minutes.end(), 0);
  // A re-run rebuilds each tenant from the same seed, so these answers
  // hold before, during and after it.
  std::vector<std::vector<fsm::ActionVector>> expected;
  for (std::size_t index = 0; index < kTenants; ++index) {
    expected.push_back(fleet.SuggestMinutes(index, state, minutes));
  }

  std::atomic<bool> done{false};
  std::atomic<std::size_t> answered{0};
  std::vector<std::thread> suggesters;
  for (std::size_t index = 0; index < kTenants; ++index) {
    suggesters.emplace_back([&, index] {
      do {
        EXPECT_EQ(fleet.SuggestMinutes(index, state, minutes),
                  expected[index])
            << "tenant " << index;
        ++answered;
      } while (!done.load());
    });
  }
  const FleetReport report = fleet.Run(factory);
  done.store(true);
  for (auto& suggester : suggesters) suggester.join();

  EXPECT_EQ(report.completed, kTenants);
  EXPECT_GE(answered.load(), kTenants);
  for (std::size_t index = 0; index < kTenants; ++index) {
    EXPECT_EQ(fleet.SuggestMinutes(index, state, minutes), expected[index]);
  }
}

TEST_F(FleetFixture, GuardsBadConfiguration) {
  FleetConfig config = CheapConfig(0, 1);
  EXPECT_THROW(Fleet(Home(), config), std::invalid_argument);
  Fleet fleet(Home(), CheapConfig(1, 1));
  EXPECT_THROW(fleet.Run(WorkloadFactory{}), std::invalid_argument);
  EXPECT_THROW(fleet.SuggestMinutes(0, {}, {}), std::logic_error);
}

}  // namespace
}  // namespace jarvis::runtime
