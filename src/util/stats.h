// Descriptive statistics used across the evaluation harness: per-episode
// reward aggregation, ROC curves for the SPL filter (Fig. 5), and summary
// rows for the functionality sweeps (Figs. 6-8).
#pragma once

#include <cstddef>
#include <vector>

namespace jarvis::util {

// Numerically stable single-pass accumulator (Welford).
class OnlineStats {
 public:
  void Add(double x);
  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// One (false-positive-rate, true-positive-rate) point of a ROC curve.
struct RocPoint {
  double threshold;
  double false_positive_rate;
  double true_positive_rate;
};

// Builds a ROC curve from classifier scores. `scores` are "probability of
// positive"; `labels` true class. Thresholds sweep the unique score values.
std::vector<RocPoint> RocCurve(const std::vector<double>& scores,
                               const std::vector<bool>& labels);

// Area under a ROC curve by trapezoid rule over the sorted points.
double RocAuc(const std::vector<RocPoint>& curve);

}  // namespace jarvis::util
