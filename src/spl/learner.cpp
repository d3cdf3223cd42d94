#include "spl/learner.h"

#include <algorithm>
#include <stdexcept>

namespace jarvis::spl {

std::string VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kSafe:
      return "safe";
    case Verdict::kBenignAnomaly:
      return "benign-anomaly";
    case Verdict::kViolation:
      return "violation";
  }
  throw std::logic_error("unknown verdict");
}

SafetyPolicyLearner::SafetyPolicyLearner(const fsm::EnvironmentFsm& fsm,
                                         SplConfig config)
    : fsm_(fsm),
      config_(config),
      table_(fsm, config.key_mode, config.count_threshold),
      filter_(fsm, config.ann, config.seed) {}

void SafetyPolicyLearner::SetMetrics(obs::Registry* registry) {
  if (registry == nullptr) {
    episodes_offered_counter_ = nullptr;
    episodes_used_counter_ = nullptr;
    episodes_skipped_counter_ = nullptr;
    observations_counter_ = nullptr;
    filtered_benign_counter_ = nullptr;
    ann_epochs_counter_ = nullptr;
    classify_safe_counter_ = nullptr;
    classify_benign_counter_ = nullptr;
    classify_violation_counter_ = nullptr;
    ann_train_timer_ = nullptr;
    return;
  }
  episodes_offered_counter_ =
      registry->GetCounter("spl.learner.episodes_offered");
  episodes_used_counter_ = registry->GetCounter("spl.learner.episodes_used");
  episodes_skipped_counter_ =
      registry->GetCounter("spl.learner.episodes_skipped");
  observations_counter_ = registry->GetCounter("spl.learner.observations");
  filtered_benign_counter_ =
      registry->GetCounter("spl.learner.anomalies_filtered");
  ann_epochs_counter_ = registry->GetCounter("spl.learner.ann_epochs");
  classify_safe_counter_ = registry->GetCounter("spl.classify.safe");
  classify_benign_counter_ =
      registry->GetCounter("spl.classify.benign_anomaly");
  classify_violation_counter_ = registry->GetCounter("spl.classify.violation");
  ann_train_timer_ = registry->GetTimerUs("spl.learner.ann_train_us");
}

void SafetyPolicyLearner::Learn(
    const std::vector<fsm::Episode>& episodes,
    const std::vector<sim::LabeledSample>& labeled) {
  // Episode-gap tolerance: a degraded event stream may yield empty or
  // truncated episodes; they are skipped (and counted) rather than
  // poisoning or aborting the learning phase.
  std::vector<fsm::TriggerAction> observations;
  std::size_t used = 0;
  std::size_t skipped = 0;  // empty or below min_episode_fraction
  for (const auto& episode : episodes) {
    const auto min_steps = static_cast<std::size_t>(
        config_.min_episode_fraction *
        static_cast<double>(episode.config().StepsPerEpisode()));
    if (episode.size() == 0 || episode.size() < min_steps) {
      ++skipped;
      continue;
    }
    ++used;
    fsm::AppendTriggerActions(episode, &observations);
  }
  if (used == 0) {
    throw std::invalid_argument(
        "SafetyPolicyLearner::Learn: no usable episodes");
  }
  if (config_.use_ann_filter) {
    if (labeled.empty()) {
      throw std::invalid_argument(
          "SafetyPolicyLearner::Learn: ANN filter enabled but no labeled "
          "training data");
    }
    obs::ScopedTimer timer(ann_train_timer_);
    filter_.Train(labeled);
  }

  // Mem <- Filter_ANN(TD): drop transitions the filter regards as benign
  // anomalies so malfunctions observed during the learning week are not
  // whitelisted as habitual behavior.
  std::size_t kept = 0;
  std::size_t filtered = 0;
  for (const auto& ta : observations) {
    if (config_.use_ann_filter && filter_.IsBenign(ta)) {
      ++filtered;
      continue;
    }
    ++kept;
    table_.Observe(ta.trigger_state, ta.action, ta.minute_of_day);
  }
  table_.Finalize();
  learned_ = true;
  if (episodes_offered_counter_ != nullptr) {
    episodes_offered_counter_->Increment(episodes.size());
    episodes_used_counter_->Increment(used);
    episodes_skipped_counter_->Increment(skipped);
    observations_counter_->Increment(kept);
    filtered_benign_counter_->Increment(filtered);
    if (config_.use_ann_filter) {
      ann_epochs_counter_->Increment(config_.ann.epochs);
    }
  }
}

Verdict SafetyPolicyLearner::ClassifyMini(const fsm::StateVector& state,
                                          const fsm::MiniAction& mini,
                                          int minute_of_day) const {
  if (!learned_) {
    throw std::logic_error("SafetyPolicyLearner: not learned yet");
  }
  if (table_.IsMiniActionSafe(state, mini, minute_of_day)) {
    if (classify_safe_counter_ != nullptr) classify_safe_counter_->Increment();
    return Verdict::kSafe;
  }
  if (config_.use_ann_filter &&
      filter_.BenignScore(state, mini, minute_of_day) >=
          AnnFilter::kBenignThreshold) {
    if (classify_benign_counter_ != nullptr) {
      classify_benign_counter_->Increment();
    }
    return Verdict::kBenignAnomaly;
  }
  if (classify_violation_counter_ != nullptr) {
    classify_violation_counter_->Increment();
  }
  return Verdict::kViolation;
}

Verdict SafetyPolicyLearner::Classify(const fsm::StateVector& state,
                                      const fsm::ActionVector& action,
                                      int minute_of_day) const {
  Verdict worst = Verdict::kSafe;
  for (const auto& mini : FeatureEncoder::SplitAction(action)) {
    const Verdict verdict = ClassifyMini(state, mini, minute_of_day);
    if (verdict == Verdict::kViolation) return Verdict::kViolation;
    if (verdict == Verdict::kBenignAnomaly) worst = Verdict::kBenignAnomaly;
  }
  return worst;
}

util::JsonValue SafetyPolicyLearner::ToJson() const {
  util::JsonObject obj;
  obj["learned"] = util::JsonValue(learned_);
  obj["table"] = table_.ToJson();
  obj["filter"] = filter_.ToJson();
  return util::JsonValue(std::move(obj));
}

void SafetyPolicyLearner::LoadJson(const util::JsonValue& doc) {
  // Fail-safe restore ordering: mark unlearned first so that an exception
  // mid-restore (hostile table/filter document) leaves the learner refusing
  // to classify — the deny path — rather than serving a half-replaced
  // whitelist.
  learned_ = false;
  table_.LoadJson(doc.At("table"));
  filter_.LoadJson(doc.At("filter"));
  learned_ = doc.At("learned").AsBool();
}

AuditResult SafetyPolicyLearner::AuditEpisode(
    const fsm::Episode& episode) const {
  AuditResult result;
  int step_index = 0;
  for (const auto& step : episode.steps()) {
    for (const auto& mini : FeatureEncoder::SplitAction(step.action)) {
      ++result.transitions_checked;
      const Verdict verdict =
          ClassifyMini(step.state, mini, step.time.minute_of_day());
      switch (verdict) {
        case Verdict::kSafe:
          ++result.safe;
          break;
        case Verdict::kBenignAnomaly:
          ++result.benign_anomalies;
          result.flags.push_back({step_index, mini, verdict});
          break;
        case Verdict::kViolation:
          ++result.violations;
          result.flags.push_back({step_index, mini, verdict});
          break;
      }
    }
    ++step_index;
  }
  return result;
}

}  // namespace jarvis::spl
