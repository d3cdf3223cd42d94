// Point-in-time export of an obs::Registry: plain-data samples of every
// registered counter, gauge, and histogram, with a JSON writer reusing
// util::json. Snapshots are value types — they can be compared (the
// golden-determinism tests do), filtered down to the deterministic subset,
// and merged across registries (fleet aggregation sums per-tenant
// snapshots).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace jarvis::obs {

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
  // True when the value is a pure function of the seeded computation;
  // false for wall-clock / scheduling dependent instruments (timers,
  // queue depths). See Determinism in obs/metrics.h.
  bool deterministic = true;

  bool operator==(const CounterSample&) const = default;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
  bool deterministic = true;

  bool operator==(const GaugeSample&) const = default;
};

struct HistogramSample {
  std::string name;
  // Finite bucket upper bounds (inclusive), strictly increasing; an
  // implicit +inf bucket follows, so bucket_counts has one more entry.
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t count = 0;      // observations binned (NaN excluded)
  double sum = 0.0;             // sum of binned observations
  std::uint64_t nan_ignored = 0;
  bool deterministic = true;

  bool operator==(const HistogramSample&) const = default;
};

struct MetricsSnapshot {
  // Each vector is sorted by name (the registry iterates a std::map).
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  // The subset whose values must be bit-identical across reruns of the
  // same seeded workload — what determinism tests compare. Timing-derived
  // instruments are excluded.
  MetricsSnapshot DeterministicOnly() const;

  // Lookup helpers; throw std::out_of_range when the name is absent.
  std::uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  const HistogramSample& FindHistogram(const std::string& name) const;
  bool HasCounter(const std::string& name) const;

  // Element-wise sum across snapshots: counters/gauges/histogram buckets
  // add by name (union of names); histograms sharing a name must share
  // bucket bounds (std::invalid_argument otherwise). A metric that is
  // nondeterministic in any part is nondeterministic in the merge.
  static MetricsSnapshot Merge(const std::vector<MetricsSnapshot>& parts);

  // {"counters": [...], "gauges": [...], "histograms": [...]}.
  util::JsonValue ToJson() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

}  // namespace jarvis::obs
