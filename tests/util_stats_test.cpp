#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace jarvis::util {
namespace {

TEST(Stats, OnlineVarianceNeverNegative) {
  // Many identical large-magnitude samples drive Welford's m2 to a tiny
  // negative rounding residue; variance/stddev must clamp, not go NaN.
  OnlineStats online;
  for (int i = 0; i < 1000; ++i) online.Add(1.0e8 + 0.1);
  EXPECT_GE(online.variance(), 0.0);
  EXPECT_FALSE(std::isnan(online.stddev()));
}

TEST(Stats, OnlineSingleSample) {
  OnlineStats online;
  online.Add(4.25);
  EXPECT_EQ(online.count(), 1u);
  EXPECT_DOUBLE_EQ(online.mean(), 4.25);
  EXPECT_DOUBLE_EQ(online.variance(), 0.0);
  EXPECT_DOUBLE_EQ(online.min(), 4.25);
  EXPECT_DOUBLE_EQ(online.max(), 4.25);
}

TEST(Stats, OnlineMatchesBatch) {
  Rng rng(5);
  std::vector<double> xs;
  OnlineStats online;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextGaussian(3.0, 2.0);
    xs.push_back(x);
    online.Add(x);
  }
  // Two-pass batch oracle.
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double variance = 0.0;
  for (double x : xs) variance += (x - mean) * (x - mean);
  variance /= static_cast<double>(xs.size());
  EXPECT_NEAR(online.mean(), mean, 1e-9);
  EXPECT_NEAR(online.variance(), variance, 1e-6);
  EXPECT_DOUBLE_EQ(online.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(online.max(), *std::max_element(xs.begin(), xs.end()));
  EXPECT_EQ(online.count(), xs.size());
}

TEST(Stats, RocPerfectClassifier) {
  const std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  const std::vector<bool> labels = {true, true, false, false};
  const auto curve = RocCurve(scores, labels);
  EXPECT_NEAR(RocAuc(curve), 1.0, 1e-9);
}

TEST(Stats, RocRandomClassifierNearHalf) {
  Rng rng(6);
  std::vector<double> scores;
  std::vector<bool> labels;
  for (int i = 0; i < 20000; ++i) {
    scores.push_back(rng.NextDouble());
    labels.push_back(rng.NextBool(0.5));
  }
  EXPECT_NEAR(RocAuc(RocCurve(scores, labels)), 0.5, 0.02);
}

TEST(Stats, RocInvertedClassifierNearZero) {
  const std::vector<double> scores = {0.1, 0.2, 0.8, 0.9};
  const std::vector<bool> labels = {true, true, false, false};
  EXPECT_NEAR(RocAuc(RocCurve(scores, labels)), 0.0, 1e-9);
}

TEST(Stats, RocRequiresBothClasses) {
  EXPECT_THROW(RocCurve({0.5, 0.6}, {true, true}), std::invalid_argument);
  EXPECT_THROW(RocCurve({0.5}, {true, false}), std::invalid_argument);
}

TEST(Stats, RocEndpointsSpanUnitSquare) {
  Rng rng(7);
  std::vector<double> scores;
  std::vector<bool> labels;
  for (int i = 0; i < 500; ++i) {
    const bool positive = rng.NextBool(0.4);
    scores.push_back(positive ? rng.NextGaussian(0.7, 0.2)
                              : rng.NextGaussian(0.3, 0.2));
    labels.push_back(positive);
  }
  const auto curve = RocCurve(scores, labels);
  EXPECT_DOUBLE_EQ(curve.front().false_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(curve.front().true_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().false_positive_rate, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().true_positive_rate, 1.0);
  // Monotone nondecreasing in both axes.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].false_positive_rate, curve[i - 1].false_positive_rate);
    EXPECT_GE(curve[i].true_positive_rate, curve[i - 1].true_positive_rate);
  }
  const double auc = RocAuc(curve);
  EXPECT_GT(auc, 0.75);
  EXPECT_LE(auc, 1.0);
}

}  // namespace
}  // namespace jarvis::util
