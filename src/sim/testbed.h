// The virtual evaluation testbed of Fig. 4: two full 11-device homes.
// Home A runs on OpenSHS-style simulated daily activities; Home B is the
// Smart*-calibrated dataset. The SPL training set TD combines learning-
// episode behavior with 55,156 user-generated benign anomaly samples
// (paper Section VI-A).
#pragma once

#include <memory>
#include <vector>

#include "fsm/device_library.h"
#include "sim/anomaly.h"
#include "sim/attack.h"
#include "sim/resident.h"
#include "sim/smartstar.h"

namespace jarvis::sim {

struct TestbedConfig {
  std::uint64_t seed = 42;
  int learning_days = 14;       // L: 14 days spread across the year (see DESIGN.md)
  std::size_t benign_anomaly_samples = 55156;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);

  const TestbedConfig& config() const { return config_; }
  const fsm::EnvironmentFsm& home_a() const { return home_a_; }
  const fsm::EnvironmentFsm& home_b() const { return home_b_; }

  // Home A learning phase: one week of OpenSHS-style natural behavior.
  std::vector<DayTrace> HomeALearningTraces() const;
  std::vector<fsm::Episode> HomeALearningEpisodes() const;

  // Home B real-data-style days.
  const SmartStarDataset& home_b_data() const { return *home_b_data_; }

  // Labeled ANN training set TD: learning-phase T/A behavior plus the
  // configured number of benign anomalies.
  std::vector<LabeledSample> BuildTrainingSet() const;

  // The 214 malicious violations for the security evaluation.
  std::vector<Violation> BuildViolations() const;

  ScenarioGenerator home_a_generator() const;
  ThermalConfig home_a_thermal() const { return ThermalConfig{}; }

 private:
  TestbedConfig config_;
  fsm::EnvironmentFsm home_a_;
  fsm::EnvironmentFsm home_b_;
  std::unique_ptr<SmartStarDataset> home_b_data_;
};

}  // namespace jarvis::sim
