#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/snapshot.h"
#include "runtime/thread_pool.h"

namespace jarvis::obs {
namespace {

TEST(Registry, CounterIncrementAndSnapshot) {
  Registry registry;
  Counter* counter = registry.GetCounter("a.b.c");
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->Value(), 42u);

  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(snapshot.CounterValue("a.b.c"), 42u);
  EXPECT_TRUE(snapshot.HasCounter("a.b.c"));
  EXPECT_FALSE(snapshot.HasCounter("missing"));
  EXPECT_THROW(snapshot.CounterValue("missing"), std::out_of_range);
  EXPECT_THROW(snapshot.GaugeValue("missing"), std::out_of_range);
  EXPECT_THROW(snapshot.FindHistogram("missing"), std::out_of_range);
}

TEST(Registry, GetReturnsSameInstrumentForSameName) {
  Registry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Increment();
  b->Increment();
  EXPECT_EQ(a->Value(), 2u);
  EXPECT_NE(a, registry.GetCounter("y"));
}

TEST(Registry, ReRegistrationMismatchThrows) {
  Registry registry;
  registry.GetCounter("stable", Determinism::kStable);
  EXPECT_THROW(registry.GetCounter("stable", Determinism::kTiming),
               std::invalid_argument);
  registry.GetHistogram("hist", {1.0, 2.0});
  EXPECT_THROW(registry.GetHistogram("hist", {1.0, 3.0}),
               std::invalid_argument);
  // Same name + same shape is fine.
  EXPECT_NO_THROW(registry.GetHistogram("hist", {1.0, 2.0}));
}

TEST(Registry, GaugeSetAndAdd) {
  Registry registry;
  Gauge* gauge = registry.GetGauge("queue.depth");
  gauge->Set(5.0);
  EXPECT_DOUBLE_EQ(gauge->Value(), 5.0);
  gauge->Add(2.5);
  gauge->Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge->Value(), 6.5);
  EXPECT_DOUBLE_EQ(registry.TakeSnapshot().GaugeValue("queue.depth"), 6.5);
}

TEST(Registry, HistogramBucketBoundaries) {
  Registry registry;
  // Prometheus "le" convention: bucket i counts x <= upper_bounds[i];
  // the last (implicit) bucket is +inf.
  Histogram* hist = registry.GetHistogram("h", {1.0, 5.0, 10.0});
  hist->Observe(0.5);    // bucket 0 (<= 1)
  hist->Observe(1.0);    // bucket 0, boundary is inclusive
  hist->Observe(1.001);  // bucket 1
  hist->Observe(5.0);    // bucket 1
  hist->Observe(10.0);   // bucket 2
  hist->Observe(99.0);   // overflow bucket (+inf)

  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  const HistogramSample& sample = snapshot.FindHistogram("h");
  EXPECT_EQ(sample.count, 6u);
  EXPECT_DOUBLE_EQ(sample.sum, 0.5 + 1.0 + 1.001 + 5.0 + 10.0 + 99.0);
  ASSERT_EQ(sample.bucket_counts.size(), 4u);
  EXPECT_EQ(sample.bucket_counts[0], 2u);
  EXPECT_EQ(sample.bucket_counts[1], 2u);
  EXPECT_EQ(sample.bucket_counts[2], 1u);
  EXPECT_EQ(sample.bucket_counts[3], 1u);
}

TEST(Registry, HistogramIgnoresNan) {
  Registry registry;
  Histogram* hist = registry.GetHistogram("h", {1.0});
  hist->Observe(std::numeric_limits<double>::quiet_NaN());
  hist->Observe(0.5);
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  const HistogramSample& sample = snapshot.FindHistogram("h");
  EXPECT_EQ(sample.count, 1u);
  EXPECT_EQ(sample.nan_ignored, 1u);
  EXPECT_DOUBLE_EQ(sample.sum, 0.5);
}

TEST(Registry, HistogramRejectsBadBounds) {
  Registry registry;
  EXPECT_THROW(registry.GetHistogram("a", {}), std::invalid_argument);
  EXPECT_THROW(registry.GetHistogram("b", {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(registry.GetHistogram("c", {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(
      registry.GetHistogram("d",
                            {1.0, std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
}

TEST(Registry, DeterministicOnlyFiltersTimingMetrics) {
  Registry registry;
  registry.GetCounter("stable.counter")->Increment();
  registry.GetCounter("timing.counter", Determinism::kTiming)->Increment();
  registry.GetGauge("timing.gauge", Determinism::kTiming)->Set(1.0);
  registry.GetTimerUs("some.latency")->Observe(123.0);

  const MetricsSnapshot filtered = registry.TakeSnapshot().DeterministicOnly();
  EXPECT_TRUE(filtered.HasCounter("stable.counter"));
  EXPECT_FALSE(filtered.HasCounter("timing.counter"));
  EXPECT_TRUE(filtered.gauges.empty());
  EXPECT_TRUE(filtered.histograms.empty());
}

TEST(Registry, SnapshotMerge) {
  Registry a;
  Registry b;
  a.GetCounter("shared")->Increment(2);
  b.GetCounter("shared")->Increment(3);
  a.GetCounter("only_a")->Increment();
  b.GetGauge("g")->Set(1.5);
  a.GetHistogram("h", {1.0, 2.0})->Observe(0.5);
  b.GetHistogram("h", {1.0, 2.0})->Observe(1.5);

  const MetricsSnapshot merged =
      MetricsSnapshot::Merge({a.TakeSnapshot(), b.TakeSnapshot()});
  EXPECT_EQ(merged.CounterValue("shared"), 5u);
  EXPECT_EQ(merged.CounterValue("only_a"), 1u);
  EXPECT_DOUBLE_EQ(merged.GaugeValue("g"), 1.5);
  const HistogramSample& hist = merged.FindHistogram("h");
  EXPECT_EQ(hist.count, 2u);
  EXPECT_EQ(hist.bucket_counts[0], 1u);
  EXPECT_EQ(hist.bucket_counts[1], 1u);

  // Mismatched bounds cannot merge.
  Registry c;
  c.GetHistogram("h", {9.0})->Observe(1.0);
  EXPECT_THROW(MetricsSnapshot::Merge({a.TakeSnapshot(), c.TakeSnapshot()}),
               std::invalid_argument);
}

TEST(Registry, SnapshotSerializesToJson) {
  Registry registry;
  registry.GetCounter("events.parsed")->Increment(7);
  registry.GetGauge("depth")->Set(2.0);
  registry.GetHistogram("lat", {1.0, 10.0})->Observe(3.0);
  const MetricsSnapshot snapshot = registry.TakeSnapshot();

  const std::string json = snapshot.ToJson().Dump();
  EXPECT_NE(json.find("\"events.parsed\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // Round-trips through the parser.
  EXPECT_NO_THROW(util::JsonValue::Parse(json));
}

TEST(Registry, ScopedTimerObservesAndNullIsNoop) {
  Registry registry;
  Histogram* timer_hist = registry.GetTimerUs("op.us");
  {
    ScopedTimer timer(timer_hist);
  }
  EXPECT_EQ(registry.TakeSnapshot().FindHistogram("op.us").count, 1u);
  {
    ScopedTimer timer(nullptr);  // must not crash or observe anything
  }
  EXPECT_EQ(registry.TakeSnapshot().FindHistogram("op.us").count, 1u);
}

// Exercised under TSan in CI (label `runtime`): concurrent increments on
// one counter from pool workers must be race-free and lossless.
TEST(Registry, ConcurrentIncrementsFromThreadPool) {
  Registry registry;
  Counter* counter = registry.GetCounter("hot");
  Gauge* gauge = registry.GetGauge("accum");
  Histogram* hist = registry.GetHistogram("obs", {100.0, 1000.0});

  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 1000;
  {
    runtime::ThreadPool pool(4);
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.Submit([counter, gauge, hist] {
        for (std::size_t i = 0; i < kPerTask; ++i) {
          counter->Increment();
          gauge->Add(1.0);
          hist->Observe(static_cast<double>(i));
        }
      });
    }
    pool.Shutdown();
  }
  EXPECT_EQ(counter->Value(), kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(gauge->Value(), static_cast<double>(kTasks * kPerTask));
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  const HistogramSample& sample = snapshot.FindHistogram("obs");
  EXPECT_EQ(sample.count, kTasks * kPerTask);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : sample.bucket_counts) bucket_total += c;
  EXPECT_EQ(bucket_total, sample.count);
}

// Registering new instruments while another thread snapshots must also be
// race-free (both paths lock the registry map).
TEST(Registry, ConcurrentRegistrationAndSnapshot) {
  Registry registry;
  {
    runtime::ThreadPool pool(4);
    for (int t = 0; t < 8; ++t) {
      pool.Submit([&registry, t] {
        for (int i = 0; i < 200; ++i) {
          registry.GetCounter("c." + std::to_string(t))->Increment();
          const MetricsSnapshot snapshot = registry.TakeSnapshot();
          (void)snapshot;
        }
      });
    }
    pool.Shutdown();
  }
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(snapshot.counters.size(), 8u);
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(snapshot.CounterValue("c." + std::to_string(t)), 200u);
  }
}

}  // namespace
}  // namespace jarvis::obs
