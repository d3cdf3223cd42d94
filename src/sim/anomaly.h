// Benign-anomaly generator: the SIMADL [12] stand-in. The paper's SPL
// component must tolerate benign device malfunctions and human errors —
// fridge or oven doors left open, a TV left on for a short stretch,
// out-of-schedule activity — without branding them unsafe. Participants in
// the SIMADL study defined such anomalies themselves and simulated them;
// here we generate labeled samples of the same archetypes (55k+ samples
// for the training set TD, plus injectable per-episode instances).
#pragma once

#include <string>
#include <vector>

#include "fsm/environment.h"
#include "fsm/episode.h"
#include "util/rng.h"

namespace jarvis::sim {

enum class AnomalyKind {
  kFridgeDoorLeftOpen,
  kOvenLeftOnShort,
  kTvLeftOnShort,
  kOutOfScheduleLight,
  kOddHourAppliance,
  kDoubleToggle,  // human error: toggling a device twice in a row
};

// One labeled T/A sample for ANN training: the trigger state, the action,
// the minute of day, and whether it is a benign anomaly (true) or normal
// behavior (false).
struct LabeledSample {
  fsm::TriggerAction ta;
  bool benign_anomaly = false;
  AnomalyKind kind = AnomalyKind::kFridgeDoorLeftOpen;  // valid if anomaly
};

// An anomalous mini-sequence to splice into an episode: at `minute`, apply
// `action`; the sequence stays plausible (reachable states only).
struct AnomalyInstance {
  AnomalyKind kind;
  int minute;
  fsm::ActionVector action;
  std::string description;
};

class AnomalyGenerator {
 public:
  AnomalyGenerator(const fsm::EnvironmentFsm& fsm, std::uint64_t seed);

  // Which anomaly kinds are expressible in this home (device-dependent).
  std::vector<AnomalyKind> SupportedKinds() const;

  // Draws one anomaly instance applicable to the given state at a random
  // minute. The action only involves devices present in the home.
  AnomalyInstance Generate(const fsm::StateVector& state);
  AnomalyInstance GenerateOfKind(AnomalyKind kind, const fsm::StateVector& state);

  // Builds the labeled training dataset TD for the ANN filter:
  // `normal` T/A observations from learning episodes labeled false, plus
  // `anomaly_count` synthetic benign anomalies labeled true, plus
  // `background_negatives` random non-anomalous transitions labeled false.
  // The background negatives teach the filter the default-deny stance the
  // paper's Occam bias requires (Section VI-F): behavior matching neither
  // habit nor a known benign archetype must not score as benign. Pass
  // anomaly_count / 2 when unsure (the default).
  std::vector<LabeledSample> BuildTrainingSet(
      const std::vector<fsm::TriggerAction>& normal_behavior,
      std::size_t anomaly_count,
      std::optional<std::size_t> background_negatives = std::nullopt);

  // True when (device label, action, minute) matches one of the benign
  // anomaly archetypes this generator can produce (used to keep background
  // negatives from contradicting the positive class).
  bool LooksLikeBenignArchetype(const std::string& device_label,
                                const std::string& action_name,
                                int minute_of_day) const;

 private:
  fsm::ActionVector SingleAction(fsm::DeviceId device,
                                 const std::string& action_name) const;

  const fsm::EnvironmentFsm& fsm_;
  util::Rng rng_;
};

}  // namespace jarvis::sim
