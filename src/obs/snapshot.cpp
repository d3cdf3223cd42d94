#include "obs/snapshot.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace jarvis::obs {

MetricsSnapshot MetricsSnapshot::DeterministicOnly() const {
  MetricsSnapshot out;
  for (const auto& sample : counters) {
    if (sample.deterministic) out.counters.push_back(sample);
  }
  for (const auto& sample : gauges) {
    if (sample.deterministic) out.gauges.push_back(sample);
  }
  for (const auto& sample : histograms) {
    if (sample.deterministic) out.histograms.push_back(sample);
  }
  return out;
}

std::uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const auto& sample : counters) {
    if (sample.name == name) return sample.value;
  }
  throw std::out_of_range("MetricsSnapshot: no counter named " + name);
}

bool MetricsSnapshot::HasCounter(const std::string& name) const {
  return std::any_of(
      counters.begin(), counters.end(),
      [&name](const CounterSample& sample) { return sample.name == name; });
}

double MetricsSnapshot::GaugeValue(const std::string& name) const {
  for (const auto& sample : gauges) {
    if (sample.name == name) return sample.value;
  }
  throw std::out_of_range("MetricsSnapshot: no gauge named " + name);
}

const HistogramSample& MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& sample : histograms) {
    if (sample.name == name) return sample;
  }
  throw std::out_of_range("MetricsSnapshot: no histogram named " + name);
}

MetricsSnapshot MetricsSnapshot::Merge(
    const std::vector<MetricsSnapshot>& parts) {
  std::map<std::string, CounterSample> counters;
  std::map<std::string, GaugeSample> gauges;
  std::map<std::string, HistogramSample> histograms;
  for (const auto& part : parts) {
    for (const auto& sample : part.counters) {
      auto [it, inserted] = counters.emplace(sample.name, sample);
      if (inserted) continue;
      it->second.value += sample.value;
      it->second.deterministic &= sample.deterministic;
    }
    for (const auto& sample : part.gauges) {
      auto [it, inserted] = gauges.emplace(sample.name, sample);
      if (inserted) continue;
      it->second.value += sample.value;
      it->second.deterministic &= sample.deterministic;
    }
    for (const auto& sample : part.histograms) {
      auto [it, inserted] = histograms.emplace(sample.name, sample);
      if (inserted) continue;
      HistogramSample& merged = it->second;
      if (merged.upper_bounds != sample.upper_bounds) {
        throw std::invalid_argument(
            "MetricsSnapshot::Merge: histogram '" + sample.name +
            "' has mismatched bucket bounds across parts");
      }
      for (std::size_t i = 0; i < merged.bucket_counts.size(); ++i) {
        merged.bucket_counts[i] += sample.bucket_counts[i];
      }
      merged.count += sample.count;
      merged.sum += sample.sum;
      merged.nan_ignored += sample.nan_ignored;
      merged.deterministic &= sample.deterministic;
    }
  }
  MetricsSnapshot out;
  for (auto& [name, sample] : counters) out.counters.push_back(sample);
  for (auto& [name, sample] : gauges) out.gauges.push_back(sample);
  for (auto& [name, sample] : histograms) out.histograms.push_back(sample);
  return out;
}

util::JsonValue MetricsSnapshot::ToJson() const {
  util::JsonArray counter_rows;
  for (const auto& sample : counters) {
    util::JsonObject row;
    row["name"] = util::JsonValue(sample.name);
    row["value"] = util::JsonValue(static_cast<std::int64_t>(sample.value));
    row["deterministic"] = util::JsonValue(sample.deterministic);
    counter_rows.emplace_back(std::move(row));
  }
  util::JsonArray gauge_rows;
  for (const auto& sample : gauges) {
    util::JsonObject row;
    row["name"] = util::JsonValue(sample.name);
    row["value"] = util::JsonValue(sample.value);
    row["deterministic"] = util::JsonValue(sample.deterministic);
    gauge_rows.emplace_back(std::move(row));
  }
  util::JsonArray histogram_rows;
  for (const auto& sample : histograms) {
    util::JsonObject row;
    row["name"] = util::JsonValue(sample.name);
    row["deterministic"] = util::JsonValue(sample.deterministic);
    row["count"] = util::JsonValue(static_cast<std::int64_t>(sample.count));
    row["sum"] = util::JsonValue(sample.sum);
    row["nan_ignored"] =
        util::JsonValue(static_cast<std::int64_t>(sample.nan_ignored));
    util::JsonArray bounds;
    for (double bound : sample.upper_bounds) {
      bounds.emplace_back(bound);
    }
    row["upper_bounds"] = util::JsonValue(std::move(bounds));
    util::JsonArray buckets;
    for (std::uint64_t bucket : sample.bucket_counts) {
      buckets.emplace_back(static_cast<std::int64_t>(bucket));
    }
    row["bucket_counts"] = util::JsonValue(std::move(buckets));
    histogram_rows.emplace_back(std::move(row));
  }
  util::JsonObject doc;
  doc["counters"] = util::JsonValue(std::move(counter_rows));
  doc["gauges"] = util::JsonValue(std::move(gauge_rows));
  doc["histograms"] = util::JsonValue(std::move(histogram_rows));
  return util::JsonValue(std::move(doc));
}

}  // namespace jarvis::obs
