#include "core/online_monitor.h"

#include <stdexcept>

#include "util/json.h"

namespace jarvis::core {

namespace {

std::size_t MonitorCount(const util::JsonValue& counters, const char* key) {
  const std::int64_t value = counters.At(key).AsInt();
  if (value < 0) {
    throw util::JsonError(std::string("OnlineMonitor::LoadJson: negative "
                                      "counter '") +
                          key + "'");
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

OnlineMonitor::OnlineMonitor(const fsm::EnvironmentFsm& fsm,
                             const spl::SafetyPolicyLearner& learner,
                             fsm::StateVector initial_state,
                             MonitorConfig config)
    : fsm_(fsm),
      learner_(learner),
      state_(std::move(initial_state)),
      config_(config),
      last_seen_(fsm.device_count()),
      state_known_(fsm.device_count(), true) {
  fsm_.ValidateState(state_);
  if (!learner_.learned()) {
    throw std::invalid_argument("OnlineMonitor: learner not learned");
  }
}

void OnlineMonitor::MarkStateUnknown(std::size_t device_index) {
  if (device_index < state_known_.size()) {
    state_known_[device_index] = false;
  }
}

void OnlineMonitor::MarkAllStatesUnknown() {
  for (std::size_t i = 0; i < state_known_.size(); ++i) MarkStateUnknown(i);
}

util::JsonValue OnlineMonitor::ToJson() const {
  util::JsonObject obj;
  util::JsonArray state;
  state.reserve(state_.size());
  for (const int value : state_) state.emplace_back(std::int64_t{value});
  obj["state"] = util::JsonValue(std::move(state));
  util::JsonArray last_seen;
  last_seen.reserve(last_seen_.size());
  for (const auto& seen : last_seen_) {
    // null = no accepted event yet (the constructor-supplied state is
    // still the trusted baseline).
    last_seen.push_back(seen ? util::JsonValue(seen->minutes())
                             : util::JsonValue());
  }
  obj["last_seen"] = util::JsonValue(std::move(last_seen));
  util::JsonArray known;
  known.reserve(state_known_.size());
  for (const bool bit : state_known_) known.emplace_back(bit);
  obj["state_known"] = util::JsonValue(std::move(known));
  util::JsonObject counters;
  counters["events_consumed"] =
      util::JsonValue(static_cast<std::int64_t>(events_consumed_));
  counters["commands_classified"] =
      util::JsonValue(static_cast<std::int64_t>(commands_classified_));
  counters["violations"] =
      util::JsonValue(static_cast<std::int64_t>(violations_));
  counters["benign_anomalies"] =
      util::JsonValue(static_cast<std::int64_t>(benign_anomalies_));
  counters["unknown_events"] =
      util::JsonValue(static_cast<std::int64_t>(unknown_events_));
  counters["stale_denials"] =
      util::JsonValue(static_cast<std::int64_t>(stale_denials_));
  counters["unknown_state_denials"] =
      util::JsonValue(static_cast<std::int64_t>(unknown_state_denials_));
  obj["counters"] = util::JsonValue(std::move(counters));
  return util::JsonValue(std::move(obj));
}

void OnlineMonitor::LoadJson(const util::JsonValue& doc) {
  const auto& state_doc = doc.At("state").AsArray();
  const auto& seen_doc = doc.At("last_seen").AsArray();
  const auto& known_doc = doc.At("state_known").AsArray();
  if (state_doc.size() != fsm_.device_count() ||
      seen_doc.size() != fsm_.device_count() ||
      known_doc.size() != fsm_.device_count()) {
    throw util::JsonError(
        "OnlineMonitor::LoadJson: device count does not match this home");
  }
  // Stage everything, then commit: a hostile document must not leave the
  // monitor with a half-replaced tracked state.
  fsm::StateVector state;
  state.reserve(state_doc.size());
  for (const auto& value : state_doc) {
    const std::optional<int> entry = value.AsIntIn();
    if (!entry) {
      throw util::JsonError(
          "OnlineMonitor::LoadJson: state entry is not an int");
    }
    state.push_back(*entry);
  }
  fsm_.ValidateState(state);  // CheckError on out-of-range device states
  std::vector<std::optional<util::SimTime>> last_seen;
  last_seen.reserve(seen_doc.size());
  for (const auto& value : seen_doc) {
    if (value.is_null()) {
      last_seen.emplace_back(std::nullopt);
    } else {
      last_seen.emplace_back(util::SimTime(value.AsInt()));
    }
  }
  std::vector<bool> known;
  known.reserve(known_doc.size());
  for (const auto& bit : known_doc) known.push_back(bit.AsBool());
  const util::JsonValue& counters = doc.At("counters");
  const std::size_t events_consumed = MonitorCount(counters, "events_consumed");
  const std::size_t commands_classified =
      MonitorCount(counters, "commands_classified");
  const std::size_t violations = MonitorCount(counters, "violations");
  const std::size_t benign_anomalies =
      MonitorCount(counters, "benign_anomalies");
  const std::size_t unknown_events = MonitorCount(counters, "unknown_events");
  const std::size_t stale_denials = MonitorCount(counters, "stale_denials");
  const std::size_t unknown_state_denials =
      MonitorCount(counters, "unknown_state_denials");
  state_ = std::move(state);
  last_seen_ = std::move(last_seen);
  state_known_ = std::move(known);
  events_consumed_ = events_consumed;
  commands_classified_ = commands_classified;
  violations_ = violations;
  benign_anomalies_ = benign_anomalies;
  unknown_events_ = unknown_events;
  stale_denials_ = stale_denials;
  unknown_state_denials_ = unknown_state_denials;
}

bool OnlineMonitor::StateUntrusted(std::size_t device_index,
                                   util::SimTime now) const {
  if (!state_known_[device_index]) return true;
  if (config_.staleness_limit_minutes > 0 && last_seen_[device_index] &&
      now - *last_seen_[device_index] > config_.staleness_limit_minutes) {
    return true;
  }
  return false;
}

std::optional<spl::Verdict> OnlineMonitor::Consume(const events::Event& event) {
  ++events_consumed_;

  const auto id = fsm_.FindDevice(event.device_label);
  if (!id) {
    ++unknown_events_;
    return std::nullopt;
  }
  const auto device_index = static_cast<std::size_t>(*id);
  const fsm::Device* device = &fsm_.device(*id);

  if (event.command.empty()) {
    // Sensor reading: update the tracked state.
    const auto new_state = device->FindState(event.attribute_value);
    if (!new_state) {
      ++unknown_events_;
      // A report arrived but is undecodable (e.g. corrupted in transit):
      // the device's tracked state can no longer be trusted until the next
      // good report.
      state_known_[device_index] = false;
      return std::nullopt;
    }
    state_[device_index] = *new_state;
    state_known_[device_index] = true;
    last_seen_[device_index] = event.date;
    return std::nullopt;
  }

  const auto action = device->FindAction(event.command);
  if (!action) {
    ++unknown_events_;
    return std::nullopt;
  }

  const fsm::MiniAction mini{static_cast<fsm::DeviceId>(device_index),
                             *action};

  // Fail-safe: deny-unsafe-by-default. A command on a device whose tracked
  // state is unknown or stale cannot be classified against a trusted
  // context — report it as a violation but count it separately: it is a
  // trust failure, not a learner classification.
  if (StateUntrusted(device_index, event.date)) {
    if (!state_known_[device_index]) {
      ++unknown_state_denials_;
    } else {
      ++stale_denials_;
    }
    return spl::Verdict::kViolation;
  }

  const spl::Verdict verdict =
      learner_.ClassifyMini(state_, mini, event.date.minute_of_day());
  ++commands_classified_;
  switch (verdict) {
    case spl::Verdict::kViolation:
      ++violations_;
      break;
    case spl::Verdict::kBenignAnomaly:
      ++benign_anomalies_;
      break;
    case spl::Verdict::kSafe:
      break;
  }

  // Track the state transition the command causes (whether or not it was
  // flagged: the monitor observes, enforcement is the RL environment's
  // job).
  state_[device_index] = device->Transition(state_[device_index], *action);
  last_seen_[device_index] = event.date;
  return verdict;
}

}  // namespace jarvis::core
