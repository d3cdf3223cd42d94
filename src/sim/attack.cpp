#include "sim/attack.h"

#include <set>
#include <stdexcept>

namespace jarvis::sim {

namespace {

// Device indices in the full evaluation home (device_library.h order).
struct Refs {
  fsm::DeviceId lock, door_sensor, light, thermostat, temp_sensor, fridge,
      oven, tv, washer, dishwasher, coffee_maker;
};

Refs ResolveRefs(const fsm::EnvironmentFsm& fsm) {
  auto id = [&](const char* label) { return fsm.DeviceIdByLabel(label); };
  return {id("lock"),   id("door_sensor"), id("light"),
          id("thermostat"), id("temp_sensor"), id("fridge"),
          id("oven"),   id("tv"),          id("washer"),
          id("dishwasher"), id("coffee_maker")};
}

fsm::StateIndex StateOf(const fsm::EnvironmentFsm& fsm, fsm::DeviceId device,
                        const char* name) {
  const auto index = fsm.device(device).FindState(name);
  if (!index) {
    throw std::logic_error(std::string("attack: unknown state ") + name);
  }
  return *index;
}

fsm::ActionIndex ActionOf(const fsm::EnvironmentFsm& fsm, fsm::DeviceId device,
                          const char* name) {
  const auto index = fsm.device(device).FindAction(name);
  if (!index) {
    throw std::logic_error(std::string("attack: unknown action ") + name);
  }
  return *index;
}

// A context template: a quiet locked home (the lock reads locked_outside
// whether the residents are asleep inside or away; the attack minute
// carries the occupancy semantics, matching natural behavior where the
// lock state alone does not encode occupancy).
fsm::StateVector NightAwayState(const fsm::EnvironmentFsm& fsm,
                                const Refs& refs, bool occupied) {
  (void)occupied;
  fsm::StateVector state(fsm.device_count(), 0);
  state[static_cast<std::size_t>(refs.lock)] =
      StateOf(fsm, refs.lock, "locked_outside");
  state[static_cast<std::size_t>(refs.door_sensor)] =
      StateOf(fsm, refs.door_sensor, "sensing");
  state[static_cast<std::size_t>(refs.light)] =
      StateOf(fsm, refs.light, "off");
  state[static_cast<std::size_t>(refs.thermostat)] =
      StateOf(fsm, refs.thermostat, "off");
  state[static_cast<std::size_t>(refs.temp_sensor)] =
      StateOf(fsm, refs.temp_sensor, "optimal");
  state[static_cast<std::size_t>(refs.fridge)] =
      StateOf(fsm, refs.fridge, "closed");
  state[static_cast<std::size_t>(refs.oven)] = StateOf(fsm, refs.oven, "off");
  state[static_cast<std::size_t>(refs.tv)] = StateOf(fsm, refs.tv, "off");
  state[static_cast<std::size_t>(refs.washer)] =
      StateOf(fsm, refs.washer, "off");
  state[static_cast<std::size_t>(refs.dishwasher)] =
      StateOf(fsm, refs.dishwasher, "off");
  state[static_cast<std::size_t>(refs.coffee_maker)] =
      StateOf(fsm, refs.coffee_maker, "off");
  return state;
}

}  // namespace

std::string ViolationTypeName(ViolationType type) {
  switch (type) {
    case ViolationType::kTriggerActionSafety:
      return "T/A safety violation";
    case ViolationType::kAccessControl:
      return "integrity/access-control violation";
    case ViolationType::kConflictRace:
      return "conflicting-action/race violation";
    case ViolationType::kMaliciousApp:
      return "malicious-app safety violation";
    case ViolationType::kInsider:
      return "insider attack";
  }
  throw std::logic_error("unknown violation type");
}

AttackGenerator::AttackGenerator(const fsm::EnvironmentFsm& fsm,
                                 std::uint64_t seed)
    : fsm_(fsm), seed_(seed) {
  ResolveRefs(fsm);  // throws early when a required device is missing
}

std::vector<Violation> AttackGenerator::GenerateAll(
    ViolationCounts counts) const {
  const Refs refs = ResolveRefs(fsm_);
  util::Rng rng(seed_);
  std::vector<Violation> violations;
  // Distinctness of (state, action) pairs across all violations.
  std::set<std::pair<std::uint64_t, std::vector<int>>> seen;

  auto action_fingerprint = [&](const fsm::ActionVector& action) {
    return std::vector<int>(action.begin(), action.end());
  };

  auto emit = [&](ViolationType type, std::string description,
                  fsm::StateVector state, fsm::ActionVector action,
                  int minute) -> bool {
    const auto key = std::make_pair(fsm_.codec().Encode(state),
                                    action_fingerprint(action));
    if (!seen.insert(key).second) return false;
    violations.push_back({type, std::move(description), std::move(state),
                          std::move(action), minute});
    return true;
  };

  auto single = [&](fsm::DeviceId device, const char* action_name) {
    fsm::ActionVector action(fsm_.device_count(), fsm::kNoAction);
    action[static_cast<std::size_t>(device)] =
        ActionOf(fsm_, device, action_name);
    return action;
  };

  // Randomly perturb "background" appliance states to mint distinct
  // contexts for the same unsafe pattern; only plausible states are used.
  auto perturb = [&](fsm::StateVector state) {
    auto flip = [&](fsm::DeviceId device, std::initializer_list<const char*>
                                              plausible) {
      std::vector<fsm::StateIndex> options;
      for (const char* name : plausible) {
        options.push_back(StateOf(fsm_, device, name));
      }
      state[static_cast<std::size_t>(device)] =
          options[rng.NextIndex(options.size())];
    };
    flip(refs.tv, {"off", "standby", "on"});
    flip(refs.washer, {"off", "idle", "washing"});
    flip(refs.dishwasher, {"off", "idle", "running"});
    flip(refs.coffee_maker, {"off", "idle"});
    flip(refs.fridge, {"closed"});
    flip(refs.light, {"off", "on"});
    return state;
  };

  // ---- Type 1: T/A safety violations (default 114) -----------------------
  struct Type1Pattern {
    fsm::DeviceId device;
    const char* action;
    const char* description;
    bool occupied;
    int minute_lo, minute_hi;
  };
  const std::vector<Type1Pattern> type1_patterns = {
      // Attack windows are chosen to sit inside time buckets where the
      // action never occurs naturally: midday unlocks (wake and arrival
      // unlocks live in the [6,9) and [15,21) buckets) and small-hours
      // unlocks (the earliest natural wake unlock is past 05:00).
      {refs.lock, "unlock", "door unlocked while nobody is home", false,
       12 * 60 + 30, 15 * 60 - 15},
      {refs.lock, "unlock", "door unlocked while the user sleeps", true,
       1 * 60, 2 * 60 + 45},
      {refs.lock, "power_off", "smart lock powered off", false, 0,
       23 * 60},
      {refs.door_sensor, "power_off", "door sensor disabled", true, 0,
       23 * 60},
      {refs.temp_sensor, "power_off", "temperature/fire sensor disabled",
       true, 0, 23 * 60},
      {refs.thermostat, "power_off",
       "heater cut while the house is below the comfort band at night", true,
       0, 5 * 60},
      {refs.oven, "start_preheat", "oven started while nobody is home", false,
       9 * 60, 16 * 60},
      {refs.fridge, "power_off", "fridge powered off (food spoilage)", true,
       0, 23 * 60},
      {refs.thermostat, "increase_temp",
       "heater driven while the house is already above the comfort band",
       true, 12 * 60, 18 * 60},
  };
  {
    int produced = 0;
    std::size_t pattern_index = 0;
    int guard = 0;
    while (produced < counts.type1 && guard < counts.type1 * 50) {
      ++guard;
      const auto& pattern = type1_patterns[pattern_index];
      pattern_index = (pattern_index + 1) % type1_patterns.size();

      fsm::StateVector state =
          perturb(NightAwayState(fsm_, refs, pattern.occupied));
      // Pattern-specific context adjustments.
      if (pattern.device == refs.thermostat &&
          std::string(pattern.action) == "power_off") {
        state[static_cast<std::size_t>(refs.temp_sensor)] =
            StateOf(fsm_, refs.temp_sensor, "below_optimal");
        state[static_cast<std::size_t>(refs.thermostat)] =
            StateOf(fsm_, refs.thermostat, "heat");
      }
      if (pattern.device == refs.thermostat &&
          std::string(pattern.action) == "increase_temp") {
        state[static_cast<std::size_t>(refs.temp_sensor)] =
            StateOf(fsm_, refs.temp_sensor, "above_optimal");
      }
      const int minute = static_cast<int>(
          rng.NextInt(pattern.minute_lo, pattern.minute_hi));
      if (emit(ViolationType::kTriggerActionSafety, pattern.description,
               std::move(state), single(pattern.device, pattern.action),
               minute)) {
        ++produced;
      }
    }
    if (produced < counts.type1) {
      throw std::logic_error("attack: could not mint enough type-1 contexts");
    }
  }

  // ---- Type 2: integrity / access-control violations (default 40) --------
  {
    int produced = 0;
    int guard = 0;
    while (produced < counts.type2 && guard < counts.type2 * 50) {
      ++guard;
      fsm::StateVector state = perturb(NightAwayState(fsm_, refs, false));
      // The door sensor reports an unauthorized user; the attack unlocks or
      // power-cycles the lock anyway, via an app that holds no lock
      // subscription (app 2 = maintain-optimal-temperature).
      state[static_cast<std::size_t>(refs.door_sensor)] =
          StateOf(fsm_, refs.door_sensor, "unauth_user");
      const bool unlock = produced % 2 == 0;
      const int minute = static_cast<int>(rng.NextInt(0, 23 * 60));
      if (emit(ViolationType::kAccessControl,
               unlock ? "unauthorized user at door, lock opened via "
                        "non-subscribed app"
                      : "unauthorized user at door, lock power-cycled via "
                        "non-subscribed app",
               std::move(state),
               single(refs.lock, unlock ? "unlock" : "power_off"), minute)) {
        ++produced;
      }
    }
    if (produced < counts.type2) {
      throw std::logic_error("attack: could not mint enough type-2 contexts");
    }
  }

  // ---- Type 3: conflicting-action / race violations (default 40) ---------
  {
    int produced = 0;
    int guard = 0;
    while (produced < counts.type3 && guard < counts.type3 * 50) {
      ++guard;
      fsm::StateVector state = perturb(NightAwayState(fsm_, refs, true));
      fsm::ActionVector action(fsm_.device_count(), fsm::kNoAction);
      // Contradictory multi-device joint actions that never co-occur
      // naturally: e.g. unlocking while cutting the lights and driving the
      // heater with the fridge open, all in one interval.
      switch (produced % 4) {
        case 0:
          action[static_cast<std::size_t>(refs.lock)] =
              ActionOf(fsm_, refs.lock, "unlock");
          action[static_cast<std::size_t>(refs.light)] =
              ActionOf(fsm_, refs.light, "power_off");
          state[static_cast<std::size_t>(refs.light)] =
              StateOf(fsm_, refs.light, "on");
          break;
        case 1:
          action[static_cast<std::size_t>(refs.thermostat)] =
              ActionOf(fsm_, refs.thermostat, "increase_temp");
          action[static_cast<std::size_t>(refs.fridge)] =
              ActionOf(fsm_, refs.fridge, "open_door");
          break;
        case 2:
          action[static_cast<std::size_t>(refs.lock)] =
              ActionOf(fsm_, refs.lock, "lock");
          action[static_cast<std::size_t>(refs.door_sensor)] =
              ActionOf(fsm_, refs.door_sensor, "power_off");
          break;
        default:
          action[static_cast<std::size_t>(refs.oven)] =
              ActionOf(fsm_, refs.oven, "start_preheat");
          action[static_cast<std::size_t>(refs.washer)] =
              ActionOf(fsm_, refs.washer, "power_off");
          state[static_cast<std::size_t>(refs.washer)] =
              StateOf(fsm_, refs.washer, "washing");
          break;
      }
      const int minute = static_cast<int>(rng.NextInt(0, 23 * 60));
      if (emit(ViolationType::kConflictRace,
               "conflicting joint action race", std::move(state),
               std::move(action), minute)) {
        ++produced;
      }
    }
    if (produced < counts.type3) {
      throw std::logic_error("attack: could not mint enough type-3 contexts");
    }
  }

  // ---- Type 4: malicious apps (default 10) -------------------------------
  {
    int produced = 0;
    int guard = 0;
    while (produced < counts.type4 && guard < counts.type4 * 50) {
      ++guard;
      fsm::StateVector state = perturb(NightAwayState(fsm_, refs, true));
      // Classic sensor-suppression chain: a trojan app disables the
      // temperature/fire sensor, then heats the oven.
      fsm::ActionVector action(fsm_.device_count(), fsm::kNoAction);
      action[static_cast<std::size_t>(refs.temp_sensor)] =
          ActionOf(fsm_, refs.temp_sensor, "power_off");
      action[static_cast<std::size_t>(refs.oven)] =
          ActionOf(fsm_, refs.oven, "start_preheat");
      const int minute = static_cast<int>(rng.NextInt(1 * 60, 5 * 60));
      if (emit(ViolationType::kMaliciousApp,
               "trojan app suppresses fire sensor then heats oven",
               std::move(state), std::move(action), minute)) {
        ++produced;
      }
    }
    if (produced < counts.type4) {
      throw std::logic_error("attack: could not mint enough type-4 contexts");
    }
  }

  // ---- Type 5: insider attacks (default 10) ------------------------------
  {
    int produced = 0;
    int guard = 0;
    while (produced < counts.type5 && guard < counts.type5 * 50) {
      ++guard;
      fsm::StateVector state = perturb(NightAwayState(fsm_, refs, true));
      // An authorized user unlocks the door in the dead of night while
      // everyone sleeps — authorized in the access-control sense, never
      // seen in natural behavior.
      const int minute = static_cast<int>(rng.NextInt(1 * 60, 2 * 60 + 45));
      fsm::ActionVector action = single(refs.lock, "unlock");
      if (produced % 2 == 1) {
        action[static_cast<std::size_t>(refs.light)] =
            ActionOf(fsm_, refs.light, "power_off");
        state[static_cast<std::size_t>(refs.light)] =
            StateOf(fsm_, refs.light, "on");
      }
      if (emit(ViolationType::kInsider,
               "insider unlocks door during sleep hours", std::move(state),
               std::move(action), minute)) {
        ++produced;
      }
    }
    if (produced < counts.type5) {
      throw std::logic_error("attack: could not mint enough type-5 contexts");
    }
  }

  return violations;
}

fsm::Episode AttackGenerator::InjectIntoEpisode(const fsm::EnvironmentFsm& fsm,
                                                const fsm::Episode& base,
                                                const Violation& violation) {
  fsm::Episode injected(base.config(), base.start_time(),
                        base.initial_state());
  const int interval = base.config().interval_minutes;
  for (const auto& step : base.steps()) {
    const int minute = step.time.minute_of_day();
    if (minute <= violation.minute && violation.minute < minute + interval) {
      injected.Record(step.time, violation.state, violation.action);
    } else {
      injected.Record(step.time, step.state, step.action);
    }
  }
  (void)fsm;
  return injected;
}

}  // namespace jarvis::sim
