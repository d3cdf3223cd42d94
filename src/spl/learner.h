// The Security Policy Learner (SPL) component: Algorithm 1 end to end.
//
// Learning phase: train the ANN filter on user-labeled benign anomalies,
// pass the learning episodes' trigger-action behavior through the filter
// (Mem <- Filter_ANN(TD)), count surviving transitions, and admit those
// with Count > Thresh_env into P_safe.
//
// Deployment: every attempted transition is classified —
//   kSafe          in P_safe (natural, whitelisted behavior),
//   kBenignAnomaly off-whitelist but the ANN recognizes it as a benign
//                  malfunction / human error (filtered, not reported),
//   kViolation     off-whitelist and not benign: flagged as a safety or
//                  security violation and blocked in the RL environment.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/anomaly.h"
#include "spl/ann_filter.h"
#include "spl/safe_table.h"

namespace jarvis::spl {

enum class Verdict { kSafe, kBenignAnomaly, kViolation };

std::string VerdictName(Verdict verdict);

struct SplConfig {
  KeyMode key_mode = KeyMode::kFactoredContext;
  int count_threshold = 0;  // Thresh_env; 0 = any observation admits
  AnnFilterConfig ann;
  bool use_ann_filter = true;  // ablation hook
  // Learning episodes shorter than this fraction of their configured
  // period are skipped (and counted) instead of aborting the learning
  // phase — a degraded event stream may hand the learner gappy or partial
  // episodes, and losing a day of the learning week must not lose the
  // week. 0 keeps every non-empty episode.
  double min_episode_fraction = 0.0;
  std::uint64_t seed = 7;
};

// One flagged mini-action when auditing an episode.
struct Flag {
  int step_index;
  fsm::MiniAction mini;
  Verdict verdict;
};

struct AuditResult {
  std::size_t transitions_checked = 0;
  std::size_t safe = 0;
  std::size_t benign_anomalies = 0;
  std::size_t violations = 0;
  std::vector<Flag> flags;  // benign anomalies and violations only
};

class SafetyPolicyLearner {
 public:
  SafetyPolicyLearner(const fsm::EnvironmentFsm& fsm, SplConfig config);

  // Runs the learning phase. `labeled` is the training dataset TD
  // (learning-phase behavior labeled normal plus user-labeled benign
  // anomalies); `episodes` are the learning episodes whose surviving
  // transitions populate P_safe. Gappy input is tolerated: empty or
  // too-short episodes are skipped and counted in
  // spl.learner.episodes_skipped; only a stream with zero usable episodes
  // aborts.
  void Learn(const std::vector<fsm::Episode>& episodes,
             const std::vector<sim::LabeledSample>& labeled);

  bool learned() const { return learned_; }

  // Classifies one joint transition attempt.
  Verdict Classify(const fsm::StateVector& state,
                   const fsm::ActionVector& action, int minute_of_day) const;
  // Classifies one mini-action.
  Verdict ClassifyMini(const fsm::StateVector& state,
                       const fsm::MiniAction& mini, int minute_of_day) const;

  // Replays an episode through the classifier.
  AuditResult AuditEpisode(const fsm::Episode& episode) const;

  // Raw benign-anomaly score for ROC construction (Fig. 5).
  double BenignScore(const fsm::TriggerAction& ta) const {
    return filter_.BenignScore(ta);
  }

  const SafeTransitionTable& table() const { return table_; }
  const AnnFilter& filter() const { return filter_; }
  const SplConfig& config() const { return config_; }
  const fsm::EnvironmentFsm& fsm() const { return fsm_; }

  // Wires spl.learner.* counters (episodes offered/used/skipped,
  // observations, anomalies filtered, ANN epochs) bumped per Learn call,
  // the spl.learner.ann_train_us timer around the ANN filter's training
  // (the share of Learn the dense kernels take), and spl.classify.* verdict
  // counters bumped per ClassifyMini (the
  // deployment-phase detection statistic behind the paper's 214-violation
  // claim — includes the mask-construction probes IoTEnv issues while
  // training). Null disables.
  void SetMetrics(obs::Registry* registry);

  // Persistence: the learnt policies (whitelist + ANN parameters), so a
  // deployment reloads them without repeating the learning phase.
  util::JsonValue ToJson() const;
  std::string ToJsonString() const { return ToJson().Dump(); }
  // Restores into a learner configured identically for the same home.
  void LoadJson(const util::JsonValue& doc);
  void LoadJsonString(const std::string& text) {
    LoadJson(util::JsonValue::Parse(text));
  }

 private:
  const fsm::EnvironmentFsm& fsm_;
  SplConfig config_;
  SafeTransitionTable table_;
  AnnFilter filter_;
  bool learned_ = false;
  obs::Counter* episodes_offered_counter_ = nullptr;
  obs::Counter* episodes_used_counter_ = nullptr;
  obs::Counter* episodes_skipped_counter_ = nullptr;
  obs::Counter* observations_counter_ = nullptr;
  obs::Counter* filtered_benign_counter_ = nullptr;
  obs::Counter* ann_epochs_counter_ = nullptr;
  obs::Counter* classify_safe_counter_ = nullptr;
  obs::Counter* classify_benign_counter_ = nullptr;
  obs::Counter* classify_violation_counter_ = nullptr;
  obs::Histogram* ann_train_timer_ = nullptr;
};

}  // namespace jarvis::spl
