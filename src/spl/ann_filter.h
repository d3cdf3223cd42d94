// The benign-anomaly filter of Algorithm 1: a feed-forward multi-layer
// perceptron with a single hidden layer, trained by back-propagation on
// user-labeled benign anomalous activities (Section V-A-3). Given a
// trigger-action observation it scores the probability that the behavior
// is a *benign* anomaly (device malfunction / human error) rather than
// either habitual behavior or a security violation.
#pragma once

#include <memory>
#include <vector>

#include "neural/network.h"
#include "neural/serialize.h"
#include "sim/anomaly.h"
#include "spl/features.h"

namespace jarvis::spl {

struct AnnFilterConfig {
  std::size_t hidden_units = 32;
  double learning_rate = 0.05;
  std::size_t epochs = 12;
  std::size_t batch_size = 64;
};

class AnnFilter {
 public:
  AnnFilter(const fsm::EnvironmentFsm& fsm, AnnFilterConfig config,
            std::uint64_t seed);

  // Trains on the labeled set (benign_anomaly == true is the positive
  // class). Returns the final epoch's mean training loss.
  double Train(const std::vector<sim::LabeledSample>& samples);

  // Probability that one mini-action observation is a benign anomaly.
  double BenignScore(const fsm::StateVector& trigger_state,
                     const fsm::MiniAction& mini, int minute_of_day) const;

  // Minimum benign score across the mini-actions of a joint action: a
  // joint action is only as benign as its most suspicious component.
  // Joint actions with no mini-action return 0.
  double BenignScore(const fsm::TriggerAction& ta) const;

  // Score at or above which an observation is a benign anomaly.
  static constexpr double kBenignThreshold = 0.5;
  bool IsBenign(const fsm::TriggerAction& ta) const {
    return BenignScore(ta) >= kBenignThreshold;
  }

  const AnnFilterConfig& config() const { return config_; }
  bool trained() const { return trained_; }

  // Accuracy of the benign/not-benign decision on a labeled holdout.
  double Evaluate(const std::vector<sim::LabeledSample>& samples) const;

  // Serialization of the trained network (topology + parameters).
  util::JsonValue ToJson() const;
  void LoadJson(const util::JsonValue& doc);

 private:
  const fsm::EnvironmentFsm& fsm_;
  FeatureEncoder encoder_;
  AnnFilterConfig config_;
  neural::Network network_;
  bool trained_ = false;
};

}  // namespace jarvis::spl
