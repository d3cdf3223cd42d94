#include "sim/anomaly.h"

#include <stdexcept>

namespace jarvis::sim {

AnomalyGenerator::AnomalyGenerator(const fsm::EnvironmentFsm& fsm,
                                   std::uint64_t seed)
    : fsm_(fsm), rng_(seed) {}

std::vector<AnomalyKind> AnomalyGenerator::SupportedKinds() const {
  std::vector<AnomalyKind> kinds;
  if (fsm_.FindDevice("fridge")) {
    kinds.push_back(AnomalyKind::kFridgeDoorLeftOpen);
  }
  if (fsm_.FindDevice("oven")) kinds.push_back(AnomalyKind::kOvenLeftOnShort);
  if (fsm_.FindDevice("tv")) kinds.push_back(AnomalyKind::kTvLeftOnShort);
  if (fsm_.FindDevice("light")) {
    kinds.push_back(AnomalyKind::kOutOfScheduleLight);
  }
  if (fsm_.FindDevice("washer") || fsm_.FindDevice("dishwasher") ||
      fsm_.FindDevice("coffee_maker")) {
    kinds.push_back(AnomalyKind::kOddHourAppliance);
  }
  if (fsm_.FindDevice("light") || fsm_.FindDevice("tv")) {
    kinds.push_back(AnomalyKind::kDoubleToggle);
  }
  if (kinds.empty()) {
    throw std::logic_error("AnomalyGenerator: no expressible anomalies");
  }
  return kinds;
}

fsm::ActionVector AnomalyGenerator::SingleAction(
    fsm::DeviceId device, const std::string& action_name) const {
  fsm::ActionVector action(fsm_.device_count(), fsm::kNoAction);
  const auto index = fsm_.device(device).FindAction(action_name);
  if (!index) {
    throw std::logic_error("AnomalyGenerator: bad action " + action_name);
  }
  action[static_cast<std::size_t>(device)] = *index;
  return action;
}

AnomalyInstance AnomalyGenerator::Generate(const fsm::StateVector& state) {
  const auto kinds = SupportedKinds();
  return GenerateOfKind(kinds[rng_.NextIndex(kinds.size())], state);
}

AnomalyInstance AnomalyGenerator::GenerateOfKind(
    AnomalyKind kind, const fsm::StateVector& state) {
  fsm_.ValidateState(state);
  switch (kind) {
    case AnomalyKind::kFridgeDoorLeftOpen: {
      const auto fridge = fsm_.FindDevice("fridge");
      if (!fridge) break;
      // The door is opened at an unusual minute and (by virtue of no
      // close action following) left open.
      const int minute = static_cast<int>(rng_.NextInt(1 * 60, 4 * 60));
      return {kind, minute, SingleAction(*fridge, "open_door"),
              "fridge door opened at night and left open"};
    }
    case AnomalyKind::kOvenLeftOnShort: {
      const auto oven = fsm_.FindDevice("oven");
      if (!oven) break;
      const int minute = static_cast<int>(rng_.NextInt(14 * 60, 16 * 60));
      return {kind, minute, SingleAction(*oven, "start_preheat"),
              "oven preheated mid-afternoon with no meal"};
    }
    case AnomalyKind::kTvLeftOnShort: {
      const auto tv = fsm_.FindDevice("tv");
      if (!tv) break;
      const int minute = static_cast<int>(rng_.NextInt(2 * 60, 5 * 60));
      return {kind, minute, SingleAction(*tv, "power_on"),
              "TV switched on in the small hours"};
    }
    case AnomalyKind::kOutOfScheduleLight: {
      const auto light = fsm_.FindDevice("light");
      if (!light) break;
      const int minute = static_cast<int>(rng_.NextInt(1 * 60, 5 * 60));
      return {kind, minute, SingleAction(*light, "power_on"),
              "light on during sleep hours (bathroom trip)"};
    }
    case AnomalyKind::kOddHourAppliance: {
      for (const char* label : {"washer", "dishwasher", "coffee_maker"}) {
        const auto device = fsm_.FindDevice(label);
        if (!device) continue;
        const auto& dev = fsm_.device(*device);
        const std::string action =
            dev.FindAction("start_cycle") ? "start_cycle" : "brew";
        const int minute = static_cast<int>(rng_.NextInt(0, 4 * 60));
        // These appliances start from idle; assume the user powered them
        // on (the instance is the unusual start itself).
        return {kind, minute, SingleAction(*device, action),
                std::string(label) + " run at an odd hour"};
      }
      break;
    }
    case AnomalyKind::kDoubleToggle: {
      for (const char* label : {"light", "tv"}) {
        const auto device = fsm_.FindDevice(label);
        if (!device) continue;
        const int minute = static_cast<int>(rng_.NextInt(9 * 60, 21 * 60));
        return {kind, minute, SingleAction(*device, "power_on"),
                std::string(label) + " toggled twice by mistake"};
      }
      break;
    }
  }
  throw std::invalid_argument("GenerateOfKind: kind not supported in home");
}

bool AnomalyGenerator::LooksLikeBenignArchetype(
    const std::string& device_label, const std::string& action_name,
    int minute_of_day) const {
  // Mirrors the minute ranges used by GenerateOfKind.
  if (device_label == "fridge" && action_name == "open_door") {
    return minute_of_day >= 1 * 60 && minute_of_day <= 4 * 60;
  }
  if (device_label == "oven" && action_name == "start_preheat") {
    return minute_of_day >= 14 * 60 && minute_of_day <= 16 * 60;
  }
  if (device_label == "tv" && action_name == "power_on") {
    return minute_of_day >= 2 * 60 && minute_of_day <= 5 * 60;
  }
  if (device_label == "light" && action_name == "power_on") {
    return (minute_of_day >= 1 * 60 && minute_of_day <= 5 * 60) ||
           (minute_of_day >= 9 * 60 && minute_of_day <= 21 * 60);
  }
  if ((device_label == "washer" || device_label == "dishwasher") &&
      action_name == "start_cycle") {
    return minute_of_day <= 4 * 60;
  }
  if (device_label == "coffee_maker" && action_name == "brew") {
    return minute_of_day <= 4 * 60;
  }
  return false;
}

std::vector<LabeledSample> AnomalyGenerator::BuildTrainingSet(
    const std::vector<fsm::TriggerAction>& normal_behavior,
    std::size_t anomaly_count,
    std::optional<std::size_t> background_negatives) {
  if (normal_behavior.empty()) {
    throw std::invalid_argument("BuildTrainingSet: no normal behavior");
  }
  const std::size_t negatives =
      background_negatives.value_or(anomaly_count / 2);
  std::vector<LabeledSample> samples;
  samples.reserve(normal_behavior.size() + anomaly_count + negatives);
  for (const auto& ta : normal_behavior) {
    samples.push_back({ta, false, AnomalyKind::kFridgeDoorLeftOpen});
  }

  const auto kinds = SupportedKinds();
  const auto lock = fsm_.FindDevice("lock");
  const auto home_lock_state =
      lock ? fsm_.device(*lock).FindState("unlocked") : std::nullopt;
  for (std::size_t i = 0; i < anomaly_count; ++i) {
    // Anchor each anomaly on a state actually seen in normal behavior so
    // the ANN separates on (state, action, time) structure, not on
    // never-seen states. Benign anomalies are *human* errors — someone is
    // home — so the lock context is forced to the at-home state; an
    // identical device action with the house locked up is an attack, not a
    // malfunction, and must stay distinguishable.
    fsm::StateVector anchor =
        normal_behavior[rng_.NextIndex(normal_behavior.size())].trigger_state;
    if (lock && home_lock_state) {
      anchor[static_cast<std::size_t>(*lock)] = *home_lock_state;
    }
    const AnomalyKind kind = kinds[rng_.NextIndex(kinds.size())];
    AnomalyInstance instance = GenerateOfKind(kind, anchor);
    samples.push_back({{anchor, instance.action, instance.minute}, true, kind});
  }

  // Background negatives: random transitions that match no benign
  // archetype, labeled not-benign (default-deny).
  std::size_t produced = 0;
  std::size_t guard = 0;
  while (produced < negatives && guard < negatives * 50 + 100) {
    ++guard;
    const auto& anchor =
        normal_behavior[rng_.NextIndex(normal_behavior.size())];
    const auto device_index = rng_.NextIndex(fsm_.device_count());
    const auto& device = fsm_.devices()[device_index];
    const auto action_index =
        static_cast<fsm::ActionIndex>(rng_.NextIndex(
            static_cast<std::size_t>(device.action_count())));
    const int minute = static_cast<int>(rng_.NextInt(0, 24 * 60 - 1));
    if (LooksLikeBenignArchetype(device.label(),
                                 device.action_name(action_index), minute)) {
      continue;
    }
    fsm::ActionVector action(fsm_.device_count(), fsm::kNoAction);
    action[device_index] = action_index;
    samples.push_back({{anchor.trigger_state, std::move(action), minute},
                       false,
                       AnomalyKind::kFridgeDoorLeftOpen});
    ++produced;
  }

  rng_.Shuffle(samples);
  return samples;
}

}  // namespace jarvis::sim
