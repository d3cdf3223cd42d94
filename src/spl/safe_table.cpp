#include "spl/safe_table.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.h"

namespace jarvis::spl {

namespace {

// Strict decimal-u64 parse for serialized table keys. std::stoull would
// silently accept trailing garbage ("123abc" -> 123) and wrap negative
// input ("-1" -> 2^64-1) — exactly the hostile-JSON UB LoadJson must
// reject instead.
std::uint64_t ParseKey(const std::string& text) {
  std::uint64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  JARVIS_CHECK(!text.empty() && ec == std::errc() && ptr == end,
               "SafeTransitionTable::LoadJson: malformed key string: ", text);
  return value;
}

// A serialized observation count must be a non-negative integer that fits
// int; anything else (negative, fractional, absurd) is hostile input.
int ParseCount(const util::JsonValue& value) {
  const double count = value.AsNumber();
  JARVIS_CHECK(count >= 0.0 &&
                   count <= static_cast<double>(
                                std::numeric_limits<int>::max()) &&
                   count == std::floor(count),
               "SafeTransitionTable::LoadJson: count must be a non-negative "
               "integer, got ", count);
  return static_cast<int>(count);
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t value) {
  h ^= value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

}  // namespace

SafeTransitionTable::SafeTransitionTable(const fsm::EnvironmentFsm& fsm,
                                         KeyMode mode, int count_threshold)
    : fsm_(fsm), mode_(mode), threshold_(count_threshold) {
  JARVIS_CHECK_GE(count_threshold, 0,
                  "SafeTransitionTable: negative threshold");
  // The safety context: security-critical devices, when present. The
  // temperature sensor participates only in thermal-device keys (see
  // MakeKey): its state is safety-relevant for the thermostat ("heater cut
  // while cold") but merely fragments keys for lights and appliances.
  for (const char* label : {"lock", "door_sensor"}) {
    if (const auto id = fsm_.FindDevice(label)) context_devices_.push_back(*id);
  }
  if (const auto id = fsm_.FindDevice("temp_sensor")) {
    temp_sensor_ = *id;
    if (const auto fire = fsm_.device(*id).FindState("fire_alarm")) {
      fire_state_ = *fire;
    }
  }
  if (const auto id = fsm_.FindDevice("thermostat")) thermostat_ = *id;
}

std::uint64_t SafeTransitionTable::MakeKey(const fsm::StateVector& state,
                                           const fsm::MiniAction& mini,
                                           int minute_of_day) const {
  std::uint64_t key = 0x51a3d70a5ULL;
  if (mode_ == KeyMode::kExactState) {
    key = Mix(key, fsm_.codec().Encode(state));
    key = Mix(key, fsm_.codec().MiniActionSlot(mini));
    return key;
  }
  key = Mix(key, static_cast<std::uint64_t>(mini.device));
  key = Mix(key, static_cast<std::uint64_t>(mini.action + 1));
  key = Mix(key, static_cast<std::uint64_t>(
                     state[static_cast<std::size_t>(mini.device)]));
  for (const fsm::DeviceId context : context_devices_) {
    key = Mix(key, static_cast<std::uint64_t>(
                       state[static_cast<std::size_t>(context)]));
  }
  // Temperature context only for thermal devices...
  if (temp_sensor_ >= 0 &&
      (mini.device == thermostat_ || mini.device == temp_sensor_)) {
    key = Mix(key, static_cast<std::uint64_t>(
                       state[static_cast<std::size_t>(temp_sensor_)]) +
                       0x1000);
  }
  // ...except for the emergency flag, which keys *every* device: behavior
  // appropriate during a fire alarm (unlock the doors, Section V-B-1) must
  // never generalize to ordinary contexts or vice versa.
  if (temp_sensor_ >= 0 && fire_state_ >= 0) {
    const bool emergency =
        state[static_cast<std::size_t>(temp_sensor_)] == fire_state_;
    key = Mix(key, emergency ? 0x2001 : 0x2000);
  }
  key = Mix(key, static_cast<std::uint64_t>(minute_of_day /
                                            kTimeBucketMinutes));
  return key;
}

void SafeTransitionTable::Observe(const fsm::StateVector& state,
                                  const fsm::ActionVector& action,
                                  int minute_of_day) {
  fsm_.ValidateState(state);
  fsm_.ValidateAction(action);
  for (std::size_t i = 0; i < action.size(); ++i) {
    if (action[i] == fsm::kNoAction) continue;
    const fsm::MiniAction mini{static_cast<fsm::DeviceId>(i), action[i]};
    ++counts_[MakeKey(state, mini, minute_of_day)];
  }
}

void SafeTransitionTable::Finalize() {
  admitted_.clear();
  for (const auto& [key, count] : counts_) {
    if (count > threshold_) admitted_.emplace(key, true);
  }
  finalized_ = true;
}

util::JsonValue SafeTransitionTable::ToJson() const {
  util::JsonObject obj;
  obj["mode"] = util::JsonValue(mode_ == KeyMode::kExactState
                                    ? std::string("exact")
                                    : std::string("factored"));
  obj["threshold"] = util::JsonValue(threshold_);
  // Canonical (sorted) key order: two tables holding the same admissions
  // must serialize to identical bytes, regardless of hash-map iteration or
  // observation order — checkpoint payloads feed content checksums and
  // byte-compare in recovery tests.
  std::vector<std::pair<std::uint64_t, int>> sorted_counts(counts_.begin(),
                                                           counts_.end());
  std::sort(sorted_counts.begin(), sorted_counts.end());
  util::JsonArray counts;
  for (const auto& [key, count] : sorted_counts) {
    util::JsonArray entry;
    // uint64 keys exceed double precision; store as decimal strings.
    entry.emplace_back(std::to_string(key));
    entry.emplace_back(count);
    counts.push_back(util::JsonValue(std::move(entry)));
  }
  obj["counts"] = util::JsonValue(std::move(counts));
  return util::JsonValue(std::move(obj));
}

void SafeTransitionTable::LoadJson(const util::JsonValue& doc) {
  const std::string mode = doc.At("mode").AsString();
  JARVIS_CHECK(mode == "exact" || mode == "factored",
               "SafeTransitionTable::LoadJson: unknown mode: ", mode);
  JARVIS_CHECK((mode == "exact") == (mode_ == KeyMode::kExactState),
               "SafeTransitionTable::LoadJson: mode mismatch: ", mode);
  JARVIS_CHECK_EQ(doc.At("threshold").AsInt(), threshold_,
                  "SafeTransitionTable::LoadJson: threshold mismatch");
  // Hostile-input hardening: parse and validate into locals, commit only
  // once the whole document checks out. A rejected load must leave the
  // table's previous (fail-safe) state untouched — never half-replaced.
  std::unordered_map<std::uint64_t, int> counts;
  for (const auto& entry : doc.At("counts").AsArray()) {
    const auto& pair = entry.AsArray();
    JARVIS_CHECK_EQ(pair.size(), std::size_t{2},
                    "SafeTransitionTable::LoadJson: counts entry is not a "
                    "[key, count] pair");
    const std::uint64_t key = ParseKey(pair[0].AsString());
    const int count = ParseCount(pair[1]);
    // Duplicate keys would make the admitted set depend on which entry
    // "wins" — an attacker-steerable ambiguity. Reject.
    JARVIS_CHECK(counts.emplace(key, count).second,
                 "SafeTransitionTable::LoadJson: duplicate count key: ", key);
  }
  counts_ = std::move(counts);
  Finalize();
}

bool SafeTransitionTable::IsMiniActionSafe(const fsm::StateVector& state,
                                           const fsm::MiniAction& mini,
                                           int minute_of_day) const {
  if (!finalized_) return false;
  if (mini.action == fsm::kNoAction) return true;
  return admitted_.count(MakeKey(state, mini, minute_of_day)) > 0;
}

bool SafeTransitionTable::IsSafe(const fsm::StateVector& state,
                                 const fsm::ActionVector& action,
                                 int minute_of_day) const {
  return UnsafeMiniActions(state, action, minute_of_day).empty();
}

std::vector<fsm::MiniAction> SafeTransitionTable::UnsafeMiniActions(
    const fsm::StateVector& state, const fsm::ActionVector& action,
    int minute_of_day) const {
  std::vector<fsm::MiniAction> unsafe;
  for (std::size_t i = 0; i < action.size(); ++i) {
    if (action[i] == fsm::kNoAction) continue;
    const fsm::MiniAction mini{static_cast<fsm::DeviceId>(i), action[i]};
    if (!IsMiniActionSafe(state, mini, minute_of_day)) unsafe.push_back(mini);
  }
  return unsafe;
}

}  // namespace jarvis::spl
