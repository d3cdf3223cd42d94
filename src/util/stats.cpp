#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace jarvis::util {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (count_ == 0) return 0.0;
  // Welford's m2 is mathematically non-negative but can round to a tiny
  // negative value (e.g. many identical large-magnitude samples); clamp so
  // variance() never goes negative and stddev() never sqrt(-0.0...1) = NaN.
  return std::max(0.0, m2_) / static_cast<double>(count_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

std::vector<RocPoint> RocCurve(const std::vector<double>& scores,
                               const std::vector<bool>& labels) {
  if (scores.size() != labels.size()) {
    throw std::invalid_argument("RocCurve: size mismatch");
  }
  std::size_t positives = 0;
  for (bool b : labels) positives += b ? 1 : 0;
  const std::size_t negatives = labels.size() - positives;
  if (positives == 0 || negatives == 0) {
    throw std::invalid_argument("RocCurve: needs both classes");
  }

  // Sort by score descending; sweep the threshold down through the scores.
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });

  std::vector<RocPoint> curve;
  curve.push_back({std::numeric_limits<double>::infinity(), 0.0, 0.0});
  std::size_t tp = 0;
  std::size_t fp = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (labels[order[i]]) ++tp;
    else ++fp;
    // Emit a point only when the next score differs (ties share a point).
    if (i + 1 < order.size() && scores[order[i + 1]] == scores[order[i]]) {
      continue;
    }
    curve.push_back({scores[order[i]],
                     static_cast<double>(fp) / static_cast<double>(negatives),
                     static_cast<double>(tp) / static_cast<double>(positives)});
  }
  return curve;
}

double RocAuc(const std::vector<RocPoint>& curve) {
  double auc = 0.0;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    const double dx = curve[i].false_positive_rate - curve[i - 1].false_positive_rate;
    const double y = 0.5 * (curve[i].true_positive_rate + curve[i - 1].true_positive_rate);
    auc += dx * y;
  }
  return auc;
}

}  // namespace jarvis::util
