// Thread-safe, low-overhead metrics: a Registry of named counters, gauges,
// and fixed-bucket histograms. Registration (name -> instrument) takes a
// mutex; the hot path — Increment / Set / Observe — is pure atomics, no
// locks, so instrumented inner loops (DQN replay, batched inference) pay a
// few relaxed atomic RMWs at most.
//
// Ownership and lifetime: instruments are owned by the Registry and live
// until it is destroyed; Get* returns stable raw pointers that components
// cache at wiring time (SetMetrics). There is deliberately no global
// default registry — tools/lint.py bans mutable static state repo-wide —
// so every pipeline owner (core::Jarvis, runtime::Fleet, tests, benches)
// holds its own instance and threads pointers down. A null instrument
// pointer means "not wired": all cached-pointer call sites null-check, so
// an unwired component runs the exact uninstrumented code path.
//
// Determinism: every instrument declares whether its value is a pure
// function of the seeded computation (kStable: event counts, loss
// histograms) or depends on wall clock / scheduling (kTiming: latency
// timers, queue depths). MetricsSnapshot::DeterministicOnly() filters on
// this flag, which is what lets golden-snapshot tests compare reruns
// exactly while timing instruments keep ticking.
//
// perfbench's `tracing_overhead` (traced p50 / untraced p50 - 1 on the
// suggest and pipeline workloads) measures what wiring the instruments
// costs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/snapshot.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace jarvis::obs {

// Whether an instrument's value is reproducible across reruns of the same
// seeded workload. See the header comment and DESIGN.md §11.
enum class Determinism {
  kStable,  // pure function of the seeded computation
  kTiming,  // wall-clock or scheduling dependent
};

// Monotonic event count. Increment is a relaxed fetch_add — safe from any
// thread, never a lock.
class Counter {
 public:
  void Increment(std::uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Counter(Determinism determinism) : determinism_(determinism) {}

  std::atomic<std::uint64_t> value_{0};
  Determinism determinism_;
};

// Last-write-wins double (Set) with an additive mode (Add). Add uses a CAS
// loop rather than C++20 atomic<double>::fetch_add for toolchain
// portability; contention on gauges is negligible (they are set at stage
// boundaries, not in inner loops).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Gauge(Determinism determinism) : determinism_(determinism) {}

  std::atomic<double> value_{0.0};
  Determinism determinism_;
};

// Fixed-bucket histogram: bucket i counts observations x <= upper_bounds[i]
// (Prometheus "le" convention), with an implicit +inf bucket last. Bounds
// are fixed at registration — the bucket array is never resized, so
// Observe is bounds lookup + two relaxed atomic RMWs (bucket count, total
// count) + one CAS-add (sum). NaN observations are counted separately and
// excluded from count/sum — they would otherwise poison the sum and make
// bucket choice undefined.
class Histogram {
 public:
  void Observe(double value);

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }

 private:
  friend class Registry;
  Histogram(std::vector<double> upper_bounds, Determinism determinism);

  std::vector<double> upper_bounds_;
  // One atomic per finite bound plus the +inf overflow bucket.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> nan_ignored_{0};
  std::atomic<double> sum_{0.0};
  Determinism determinism_;
};

// Default bucket bounds for microsecond latency timers: 10µs .. 1s.
const std::vector<double>& DefaultLatencyBoundsUs();

// Default bucket bounds for batch-size histograms (rows per batched
// forward pass, e.g. neural.predict_batch.rows): powers of two, 1 .. 256.
const std::vector<double>& DefaultBatchSizeBounds();

// Named-instrument registry. Get* registers on first use and returns the
// existing instrument afterwards (the Determinism flag and bounds must
// match on re-lookup; std::invalid_argument otherwise — two call sites
// disagreeing about one name is a wiring bug). Get* takes the registry
// mutex and is meant for wiring time; cache the returned pointer for hot
// paths. TakeSnapshot is safe concurrently with increments — it reads the
// atomics relaxed, so a snapshot taken mid-update is a valid point-in-time
// sample of each instrument independently.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name,
                      Determinism determinism = Determinism::kStable)
      JARVIS_EXCLUDES(mutex_);
  Gauge* GetGauge(const std::string& name,
                  Determinism determinism = Determinism::kStable)
      JARVIS_EXCLUDES(mutex_);
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds,
                          Determinism determinism = Determinism::kStable)
      JARVIS_EXCLUDES(mutex_);
  // Microsecond latency histogram with DefaultLatencyBoundsUs(), always
  // kTiming (a wall-clock measurement is never deterministic).
  Histogram* GetTimerUs(const std::string& name) JARVIS_EXCLUDES(mutex_);

  MetricsSnapshot TakeSnapshot() const JARVIS_EXCLUDES(mutex_);

 private:
  // Reader/writer split: registration (Get*) is exclusive, snapshotting is
  // shared — concurrent TakeSnapshot callers never serialize each other,
  // and the instrument atomics themselves are read lock-free either way.
  mutable util::SharedMutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      JARVIS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      JARVIS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      JARVIS_GUARDED_BY(mutex_);
};

// RAII wall-clock timer feeding a (nullable) histogram in microseconds.
// Null histogram → no clock read at all, so unwired call sites cost one
// pointer test.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      histogram_->Observe(
          std::chrono::duration<double, std::micro>(elapsed).count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace jarvis::obs
