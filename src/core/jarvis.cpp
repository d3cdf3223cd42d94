#include "core/jarvis.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace jarvis::core {

Jarvis::Jarvis(const fsm::EnvironmentFsm& fsm, JarvisConfig config)
    : fsm_(fsm), config_(config), learner_(fsm, config.spl) {
  learner_.SetMetrics(&registry_);
  learn_counter_ = registry_.GetCounter("core.jarvis.learn_calls");
  optimize_counter_ = registry_.GetCounter("core.jarvis.optimize_calls");
  suggest_counter_ = registry_.GetCounter("core.jarvis.suggest_calls");
}

void Jarvis::LearnPolicies(const std::vector<fsm::Episode>& learning_episodes,
                           const std::vector<sim::LabeledSample>& labeled) {
  learner_.Learn(learning_episodes, labeled);
  health_.learn = learner_.learn_report();
  learn_counter_->Increment();
}

std::size_t Jarvis::LearnFromEvents(
    const std::vector<events::Event>& events,
    const fsm::StateVector& initial_state, util::SimTime start,
    const std::vector<sim::LabeledSample>& labeled) {
  events::LogParser parser(fsm_, config_.episode, config_.parse_drop_budget);
  parser.SetMetrics(&registry_);
  const auto episodes = parser.Parse(events, initial_state, start);
  health_.parse = parser.report();
  if (!health_.parse.WithinBudget()) {
    throw std::runtime_error(
        "Jarvis::LearnFromEvents: parse drop budget exceeded — event stream "
        "too degraded to learn from");
  }
  if (episodes.empty()) {
    throw std::invalid_argument(
        "Jarvis::LearnFromEvents: no complete learning episodes in log");
  }
  LearnPolicies(episodes, labeled);
  return episodes.size();
}

DayPlan Jarvis::OptimizeDay(const sim::DayTrace& natural,
                            rl::RewardWeights weights) {
  if (!learner_.learned()) {
    throw std::logic_error("Jarvis::OptimizeDay: learning phase not done");
  }
  optimize_counter_->Increment();
  rl::IoTEnvConfig env_config = config_.env;
  env_config.weights = weights;
  env_config.constrained = true;

  // IoTEnv holds the day trace by reference, and the env is retained for
  // SuggestAction long after this call returns — so retain our own copy of
  // the trace; the caller's may die with its scope (fleet tenant workloads
  // do exactly that). Old env is replaced before the old day it references
  // is released.
  auto day = std::make_unique<sim::DayTrace>(natural);
  last_env_ = std::make_unique<rl::IoTEnv>(fsm_, *day, config_.thermal,
                                           &learner_, env_config);
  last_day_ = std::move(day);

  DayPlan plan;
  const int restarts = std::max(1, config_.restarts);
  for (int restart = 0; restart < restarts; ++restart) {
    rl::DqnConfig dqn = config_.dqn;
    // Restart 0 keeps the configured seed (so single-restart runs are
    // directly comparable to a bare DqnAgent with the same config); later
    // restarts draw decorrelated streams from it.
    dqn.seed = restart == 0
                   ? config_.dqn.seed
                   : util::DeriveSeed(config_.dqn.seed,
                                      static_cast<std::uint64_t>(restart));
    auto agent = std::make_unique<rl::DqnAgent>(last_env_->feature_width(),
                                                fsm_.codec(), dqn);
    // Warm start (restart 0 only): seed the network from the checkpoint's
    // staged DQN doc. Validation happens here, where the agent's widths are
    // known; a rejected doc falls back to the cold network just built —
    // LoadJson commits nothing on failure — and counts as a failed section.
    if (restart == 0 && config_.warm_start_dqn && warm_dqn_doc_ != nullptr) {
      try {
        agent->LoadJson(*warm_dqn_doc_);
      } catch (const std::exception&) {
        ++health_.checkpoint_sections_failed;
      }
    }
    rl::TrainResult result =
        rl::Train(*last_env_, *agent, config_.trainer, &registry_);
    // Health accumulates across every restart, not just the winner: a
    // divergence in a losing restart is still a divergence this instance
    // survived.
    health_.train_divergence_recoveries += result.divergence_recoveries;
    health_.train_poisoned_purged += result.poisoned_experiences_purged;
    if (restart == 0 || result.greedy_reward > plan.train.greedy_reward) {
      plan.train = std::move(result);
      agent_ = std::move(agent);
    }
  }
  plan.normal_metrics = natural.metrics;
  plan.optimized_metrics = plan.train.greedy_metrics;
  plan.violations = plan.train.greedy_violations;
  return plan;
}

namespace {

// Section names of the checkpoint container. "meta" gates everything; the
// rest restore independently.
constexpr char kMetaSection[] = "meta";
constexpr char kSplSection[] = "spl";
constexpr char kDqnSection[] = "dqn";
constexpr char kMonitorSection[] = "monitor";
constexpr std::int64_t kCheckpointMetaVersion = 1;

}  // namespace

persist::Checkpoint Jarvis::MakeCheckpoint(
    const OnlineMonitor* monitor) const {
  persist::Checkpoint checkpoint;
  util::JsonObject meta;
  meta["format_version"] = util::JsonValue(kCheckpointMetaVersion);
  meta["devices"] =
      util::JsonValue(static_cast<std::int64_t>(fsm_.device_count()));
  meta["mini_actions"] = util::JsonValue(
      static_cast<std::int64_t>(fsm_.codec().mini_action_count()));
  checkpoint.AddSection(kMetaSection, util::JsonValue(std::move(meta)).Dump());
  if (learner_.learned()) {
    checkpoint.AddSection(kSplSection, learner_.ToJsonString());
  }
  if (agent_ != nullptr) {
    checkpoint.AddSection(kDqnSection, agent_->ToJson().Dump());
  }
  if (monitor != nullptr) {
    checkpoint.AddSection(kMonitorSection, monitor->ToJson().Dump());
  }
  return checkpoint;
}

void Jarvis::SaveCheckpoint(const std::string& path,
                            const OnlineMonitor* monitor,
                            util::io::WriteInterceptor* interceptor) const {
  MakeCheckpoint(monitor).WriteFile(path, interceptor);
}

Jarvis::RestoreReport Jarvis::RestoreFrom(const persist::Checkpoint& checkpoint,
                                          OnlineMonitor* monitor) {
  RestoreReport report;
  report.file_found = true;

  // Meta gate: a checkpoint for a differently-shaped home (or a future
  // format) must not be trusted at all — a whitelist keyed on a different
  // device set would admit arbitrary transitions here.
  const std::string* meta_text = checkpoint.FindSection(kMetaSection);
  if (meta_text == nullptr) {
    report.issues.push_back({kMetaSection, "section missing; nothing trusted"});
  } else {
    try {
      const util::JsonValue meta = util::JsonValue::Parse(*meta_text);
      const std::int64_t version = meta.At("format_version").AsInt();
      if (version != kCheckpointMetaVersion) {
        throw util::JsonError("meta format version " +
                              std::to_string(version) + " unsupported");
      }
      if (meta.At("devices").AsInt() !=
              static_cast<std::int64_t>(fsm_.device_count()) ||
          meta.At("mini_actions").AsInt() !=
              static_cast<std::int64_t>(fsm_.codec().mini_action_count())) {
        throw util::JsonError("checkpoint is for a different home");
      }
      report.meta_valid = true;
    } catch (const std::exception& error) {
      report.issues.push_back({kMetaSection, error.what()});
    }
  }
  if (!report.meta_valid) {
    // Count every data section present as lost: valid payloads under an
    // untrusted meta are still untrusted.
    for (const char* name : {kSplSection, kDqnSection, kMonitorSection}) {
      if (checkpoint.HasSection(name)) ++report.sections_failed;
    }
    health_.checkpoint_sections_failed += report.sections_failed;
    return report;
  }

  const auto restore_section = [&](const char* name,
                                   const std::function<void(
                                       const std::string&)>& apply) -> bool {
    const std::string* text = checkpoint.FindSection(name);
    if (text == nullptr) return false;
    try {
      apply(*text);
      ++report.sections_restored;
      return true;
    } catch (const std::exception& error) {
      report.issues.push_back({name, error.what()});
      ++report.sections_failed;
      return false;
    }
  };

  // Per-section salvage. Each failure leaves that component cold-started:
  // a rejected SPL leaves the learner unlearned (its LoadJson is fail-safe
  // ordered), a rejected DQN doc simply isn't staged, a rejected monitor
  // doc leaves the live tracked state alone.
  report.spl_restored = restore_section(
      kSplSection, [&](const std::string& text) {
        learner_.LoadJsonString(text);
        health_.learn = learner_.learn_report();
      });
  report.dqn_staged = restore_section(
      kDqnSection, [&](const std::string& text) {
        // Parse + structural sanity now; full width/shape validation runs
        // at warm-start time in DqnAgent::LoadJson, once the agent exists.
        auto doc = std::make_unique<util::JsonValue>(
            util::JsonValue::Parse(text));
        doc->At("network");  // throws JsonError when absent
        warm_dqn_doc_ = std::move(doc);
      });
  if (monitor != nullptr) {
    report.monitor_restored = restore_section(
        kMonitorSection, [&](const std::string& text) {
          monitor->LoadJson(util::JsonValue::Parse(text));
          // Deny-unsafe until re-established: events may have occurred
          // between the checkpoint and the crash, so the restored tracked
          // state is not assumed current.
          monitor->MarkAllStatesUnknown();
        });
  }

  health_.checkpoint_sections_restored += report.sections_restored;
  health_.checkpoint_sections_failed += report.sections_failed;
  return report;
}

Jarvis::RestoreReport Jarvis::LoadCheckpoint(const std::string& path,
                                             OnlineMonitor* monitor) {
  std::vector<persist::CheckpointIssue> issues;
  persist::Checkpoint checkpoint;
  try {
    checkpoint = persist::Checkpoint::ReadFile(path, &issues);
  } catch (const util::io::IoError& error) {
    // Missing/unreadable file: a cold start, reported but never thrown —
    // recovery proceeds with nothing restored.
    RestoreReport report;
    report.issues.push_back({"", error.what()});
    return report;
  }
  RestoreReport report = RestoreFrom(checkpoint, monitor);
  // Prepend container-level diagnostics (bad magic, version skew,
  // truncation, CRC drops, trailing bytes) so the report carries the full
  // story; the sections they lost count as failed. A cut at section i of
  // count loses count - i sections, so the sum is clamped to the sections
  // this class writes that did not parse: a corrupt count cannot inflate
  // it.
  report.issues.insert(report.issues.begin(), issues.begin(), issues.end());
  std::size_t lost = 0;
  for (const persist::CheckpointIssue& issue : issues) {
    lost += issue.sections_lost;
  }
  constexpr std::size_t kSectionCount = 4;  // meta, spl, dqn, monitor
  lost = std::min(lost, kSectionCount - std::min(kSectionCount,
                                                 checkpoint.section_count()));
  health_.checkpoint_sections_failed += lost;
  report.sections_failed += lost;
  return report;
}

fsm::ActionVector Jarvis::SuggestAction(const fsm::StateVector& state,
                                        int minute) const {
  if (!agent_ || !last_env_) {
    throw std::logic_error("Jarvis::SuggestAction: no trained policy");
  }
  suggest_counter_->Increment();
  const auto features = last_env_->FeaturesFor(state, minute);
  const auto mask = last_env_->SafeSlotMaskFor(state, minute);
  return agent_->GreedyActionFromQ(agent_->QValues(features), mask);
}

spl::AuditResult Jarvis::Audit(const fsm::Episode& episode) const {
  if (!learner_.learned()) {
    throw std::logic_error("Jarvis::Audit: learning phase not done");
  }
  return learner_.AuditEpisode(episode);
}

}  // namespace jarvis::core
