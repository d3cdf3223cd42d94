#include "rl/iot_env.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jarvis::rl {

namespace {

// Per-minute, per-degC dis-utility while the house is occupied and outside
// the comfort band (linear in the error up to a 10 degC cap). The user's
// standing discomfort must out-price the marginal energy+cost reward of
// not heating at *any* error magnitude, so even low-f_temp policies keep
// the house livable — the chi = 1 balance of Section VI-D ("optimized
// actions never cause more dis-utility than functionality").
constexpr double kComfortDisutilityPerDegCMin = 0.1;

}  // namespace

IoTEnv::IoTEnv(const fsm::EnvironmentFsm& fsm, const sim::DayTrace& natural,
               sim::ThermalConfig thermal,
               const spl::SafetyPolicyLearner* learner, IoTEnvConfig config)
    : fsm_(fsm),
      natural_(natural),
      thermal_config_(thermal),
      learner_(learner),
      config_(config),
      reward_(config.weights),
      refs_(fsm),
      max_watts_(0.0),
      max_price_(0.0),
      thermal_(thermal),
      episode_({util::kMinutesPerDay, 1},
               util::SimTime::FromDayAndMinute(natural.scenario.day, 0),
               natural.episode.initial_state()) {
  if (config_.constrained && learner_ == nullptr) {
    throw std::invalid_argument("IoTEnv: constrained mode needs a learner");
  }
  if (util::kMinutesPerDay % config_.decision_interval_minutes != 0) {
    throw std::invalid_argument(
        "IoTEnv: decision interval must divide the day");
  }
  for (const auto& device : fsm_.devices()) {
    double device_max = 0.0;
    for (fsm::StateIndex s = 0; s < device.state_count(); ++s) {
      device_max = std::max(device_max, device.PowerDraw(s));
    }
    max_watts_ += device_max;
  }
  max_price_ = *std::max_element(natural.scenario.price_usd_per_kwh.begin(),
                                 natural.scenario.price_usd_per_kwh.end());
  Reset();
}

void IoTEnv::Reset() {
  minute_ = 0;
  state_ = natural_.episode.initial_state();
  thermal_ = sim::ThermalModel(thermal_config_);
  episode_ = fsm::Episode(
      {util::kMinutesPerDay, 1},
      util::SimTime::FromDayAndMinute(natural_.scenario.day, 0), state_);
  indoor_c_.clear();
  indoor_c_.reserve(util::kMinutesPerDay);
  violation_patterns_.clear();
  violation_events_ = 0;
  cumulative_reward_ = 0.0;

  demands_.clear();
  for (const auto& demand : natural_.scenario.demands) {
    if (demand.device_label != "washer" && demand.device_label != "dishwasher") {
      continue;  // only deferrable appliances become agent demands
    }
    if (const auto id = fsm_.FindDevice(demand.device_label)) {
      demands_.push_back({demand, *id, false, -1});
    }
  }
}

fsm::ActionVector IoTEnv::ResidentActionsAt(int minute) const {
  fsm::ActionVector actions(fsm_.device_count(), fsm::kNoAction);
  const auto& step =
      natural_.episode.steps()[static_cast<std::size_t>(minute)];
  auto copy_if_owned = [&](const std::optional<fsm::DeviceId>& id) {
    if (!id) return;
    const auto idx = static_cast<std::size_t>(*id);
    actions[idx] = step.action[idx];
  };
  // Resident-owned devices: physical-presence actions the optimizer must
  // not usurp. Thermostat, light, washer, and dishwasher belong to the
  // agent; sensors evolve exogenously.
  copy_if_owned(refs_.lock);
  copy_if_owned(refs_.fridge);
  copy_if_owned(refs_.oven);
  copy_if_owned(refs_.tv);
  copy_if_owned(refs_.coffee_maker);
  return actions;
}

std::size_t IoTEnv::feature_width() const {
  return fsm_.codec().one_hot_width() + 7;
}

std::vector<double> IoTEnv::Features() const {
  return FeaturesFor(state_, minute_);
}

std::vector<double> IoTEnv::FeaturesFor(const fsm::StateVector& raw_state,
                                        int raw_minute) const {
  std::vector<double> features = fsm_.codec().OneHot(raw_state);
  features.reserve(feature_width());
  const int minute = std::clamp(raw_minute, 0, util::kMinutesPerDay - 1);
  const double phase = 2.0 * M_PI * static_cast<double>(minute) /
                       static_cast<double>(util::kMinutesPerDay);
  const auto m = static_cast<std::size_t>(minute);
  features.push_back(std::sin(phase));
  features.push_back(std::cos(phase));
  features.push_back(natural_.scenario.occupied[m] ? 1.0 : 0.0);
  features.push_back(natural_.scenario.someone_awake[m] ? 1.0 : 0.0);
  features.push_back(natural_.scenario.price_usd_per_kwh[m] / max_price_);
  features.push_back(natural_.scenario.outdoor_c[m] / 40.0);
  features.push_back((thermal_.indoor_temp_c() - 21.0) / 10.0);
  return features;
}

std::vector<bool> IoTEnv::SafeSlotMaskFor(const fsm::StateVector& state,
                                          int minute) const {
  const auto& codec = fsm_.codec();
  std::vector<bool> mask(codec.mini_action_count(), false);
  for (std::size_t slot = 0; slot < mask.size(); ++slot) {
    const fsm::MiniAction mini = codec.SlotToMiniAction(slot);
    if (mini.action == fsm::kNoAction) {
      mask[slot] = true;  // doing nothing is always available
      continue;
    }
    const auto& device = fsm_.device(mini.device);
    if (!device.ActionHasEffect(
            state[static_cast<std::size_t>(mini.device)], mini.action)) {
      continue;  // equivalent to no-op; keep the action space tight
    }
    if (config_.constrained) {
      mask[slot] = learner_->table().IsMiniActionSafe(state, mini, minute);
    } else {
      mask[slot] = true;
    }
  }
  return mask;
}

std::vector<bool> IoTEnv::SafeSlotMask() const {
  return SafeSlotMaskFor(state_, std::min(minute_, util::kMinutesPerDay - 1));
}

fsm::ActionVector IoTEnv::DemonstrationAction() const {
  // The rule-based controller the Table II apps implement, applied to the
  // agent-owned devices in the *current* env state: comfort-track the
  // thermostat while occupied and shut it off when away (App 2 + App 5),
  // match the lighting habit, and start deferrable demands at their
  // preferred minute. Algorithm 2's agent starts from this app behavior
  // and improves on it.
  fsm::ActionVector action(fsm_.device_count(), fsm::kNoAction);
  if (done()) return action;
  const int minute = minute_;
  const auto m = static_cast<std::size_t>(minute);
  const bool occupied = natural_.scenario.occupied[m];
  const bool awake = natural_.scenario.someone_awake[m];

  if (refs_.thermostat) {
    const auto idx = static_cast<std::size_t>(*refs_.thermostat);
    const auto& thermostat = fsm_.device(*refs_.thermostat);
    if (occupied) {
      if (thermal_.indoor_temp_c() < thermal_config_.optimal_low_c) {
        action[idx] = *thermostat.FindAction("increase_temp");
      } else if (thermal_.indoor_temp_c() > thermal_config_.optimal_high_c) {
        action[idx] = *thermostat.FindAction("decrease_temp");
      } else if (state_[idx] != *thermostat.FindState("off") &&
                 thermal_.indoor_temp_c() >
                     thermal_config_.optimal_low_c + 1.0) {
        // Inside the band with margin: coast.
        action[idx] = *thermostat.FindAction("power_off");
      }
    } else if (state_[idx] != *thermostat.FindState("off")) {
      action[idx] = *thermostat.FindAction("power_off");
    }
  }

  if (refs_.light) {
    const auto idx = static_cast<std::size_t>(*refs_.light);
    const auto& light = fsm_.device(*refs_.light);
    const bool dark = minute < 6 * 60 + 45 || minute >= 17 * 60 + 45;
    const bool want_on = dark && occupied && awake;
    if (want_on && state_[idx] == *light.FindState("off")) {
      action[idx] = *light.FindAction("power_on");
    } else if (!want_on && state_[idx] == *light.FindState("on")) {
      action[idx] = *light.FindAction("power_off");
    }
  }

  for (const auto& demand : demands_) {
    if (demand.started) continue;
    const auto idx = static_cast<std::size_t>(demand.device);
    const auto& device = fsm_.device(demand.device);
    if (minute + config_.decision_interval_minutes <=
        demand.demand.preferred_minute) {
      continue;
    }
    // Power on first if needed, then start the cycle.
    if (state_[idx] == *device.FindState("off")) {
      if (const auto on = device.FindAction("power_on")) action[idx] = *on;
    } else if (const auto start =
                   device.FindAction(demand.demand.action_name)) {
      action[idx] = *start;
    }
  }
  return action;
}

double IoTEnv::AdvanceMinute(const fsm::ActionVector* agent_action) {
  const int minute = minute_;
  const auto m = static_cast<std::size_t>(minute);
  const util::SimTime now =
      util::SimTime::FromDayAndMinute(natural_.scenario.day, minute);

  // ---- Merge actions: resident first (constraint 4), agent second. ----
  fsm::ActionVector merged = ResidentActionsAt(minute);
  // Auto-finish running deferrable cycles.
  for (auto& demand : demands_) {
    if (demand.started && demand.finish_minute == minute) {
      const auto idx = static_cast<std::size_t>(demand.device);
      const auto& device = fsm_.device(demand.device);
      const auto finish = device.FindAction("finish_cycle");
      if (finish && merged[idx] == fsm::kNoAction &&
          device.ActionHasEffect(state_[idx], *finish)) {
        merged[idx] = *finish;
      }
    }
  }

  if (agent_action != nullptr) {
    fsm_.ValidateAction(*agent_action);
    for (std::size_t i = 0; i < agent_action->size(); ++i) {
      const fsm::ActionIndex a = (*agent_action)[i];
      if (a == fsm::kNoAction) continue;
      if (merged[i] != fsm::kNoAction) continue;  // device busy this minute
      const fsm::MiniAction mini{static_cast<fsm::DeviceId>(i), a};
      if (!fsm_.device(mini.device)
               .ActionHasEffect(state_[i], a)) {
        continue;
      }
      if (config_.constrained &&
          !learner_->table().IsMiniActionSafe(state_, mini, minute)) {
        continue;  // the constrained agent cannot leave the whitelist
      }
      if (learner_ != nullptr &&
          learner_->ClassifyMini(state_, mini, minute) ==
              spl::Verdict::kViolation) {
        ++violation_events_;
        std::uint64_t pattern = static_cast<std::uint64_t>(mini.device);
        pattern = pattern * 131 + static_cast<std::uint64_t>(mini.action + 1);
        pattern = pattern * 131 + static_cast<std::uint64_t>(state_[i]);
        pattern = pattern * 131 +
                  static_cast<std::uint64_t>(minute / spl::kTimeBucketMinutes);
        violation_patterns_.insert(pattern);
      }
      merged[i] = a;
    }
  }

  // ---- Record and advance the FSM. ----
  episode_.Record(now, state_, merged);
  fsm::StateVector next = fsm_.Apply(state_, merged);

  // Deferrable demand bookkeeping: a start action satisfies the demand.
  for (auto& demand : demands_) {
    if (demand.started) continue;
    const auto idx = static_cast<std::size_t>(demand.device);
    if (merged[idx] == fsm::kNoAction) continue;
    const auto& device = fsm_.device(demand.device);
    if (device.action_name(merged[idx]) == demand.demand.action_name) {
      demand.started = true;
      demand.finish_minute =
          std::min(minute + demand.demand.duration_minutes,
                   util::kMinutesPerDay - 1);
    }
  }

  // ---- Exogenous sensor evolution. ----
  if (refs_.door_sensor) {
    const auto idx = static_cast<std::size_t>(*refs_.door_sensor);
    const auto& sensor = fsm_.device(*refs_.door_sensor);
    if (next[idx] != *sensor.FindState("off")) {
      const bool arriving =
          std::find(natural_.scenario.arrival_minutes.begin(),
                    natural_.scenario.arrival_minutes.end(),
                    minute) != natural_.scenario.arrival_minutes.end();
      next[idx] = arriving ? *sensor.FindState("auth_user")
                           : *sensor.FindState("sensing");
    }
  }

  // ---- Physics. ----
  sim::HvacMode mode = sim::HvacMode::kOff;
  if (refs_.thermostat) {
    const auto thermostat_state =
        next[static_cast<std::size_t>(*refs_.thermostat)];
    if (thermostat_state <= 2) {
      mode = sim::HvacModeFromThermostatState(thermostat_state);
    }
  }
  thermal_.Step(mode, natural_.scenario.outdoor_c[m]);
  indoor_c_.push_back(thermal_.indoor_temp_c());

  if (refs_.temp_sensor) {
    const auto idx = static_cast<std::size_t>(*refs_.temp_sensor);
    const auto& sensor = fsm_.device(*refs_.temp_sensor);
    if (next[idx] != *sensor.FindState("off") &&
        next[idx] != *sensor.FindState("fire_alarm")) {
      next[idx] = thermal_.SensorState();
    }
  }

  // ---- Reward. ----
  double watts = 0.0;
  for (std::size_t i = 0; i < fsm_.device_count(); ++i) {
    watts += fsm_.devices()[i].PowerDraw(next[i]);
  }

  double pending = 0.0;
  for (const auto& demand : demands_) {
    if (demand.started || minute < demand.demand.preferred_minute) continue;
    const double delay =
        static_cast<double>(minute - demand.demand.preferred_minute);
    pending += fsm_.device(demand.device).default_dis_utility() * delay /
               static_cast<double>(util::kMinutesPerDay);
  }
  // Comfort habit: an occupied house outside the comfort band charges the
  // user's standing discomfort each minute, growing with how far the
  // temperature has drifted (a 10-degC-cold house is far worse than a
  // 1-degC one). Even when the functionality weight on temperature is
  // small, abandoning heating must not pay (the paper's chi-balance
  // requirement).
  if (refs_.thermostat && natural_.scenario.occupied[m]) {
    const double error = thermal_.ComfortErrorC();
    if (error > 0.5) {
      pending += kComfortDisutilityPerDegCMin *
                 std::min(error, 10.0);
    }
  }
  // Lighting habit: dark + occupied + awake wants the light on.
  if (refs_.light) {
    const bool dark = minute < 6 * 60 + 45 || minute >= 17 * 60 + 45;
    const auto idx = static_cast<std::size_t>(*refs_.light);
    const auto& light = fsm_.device(*refs_.light);
    if (dark && natural_.scenario.occupied[m] &&
        natural_.scenario.someone_awake[m] &&
        next[idx] == *light.FindState("off")) {
      pending += light.default_dis_utility();
    }
  }

  StepPhysical physical;
  physical.interval_watts = watts;
  physical.max_watts = max_watts_;
  physical.price_usd_per_kwh = natural_.scenario.price_usd_per_kwh[m];
  physical.max_price_usd_per_kwh = max_price_;
  physical.comfort_error_c = thermal_.ComfortErrorC();
  physical.occupied = natural_.scenario.occupied[m];
  physical.pending_disutility = pending;

  const double reward = reward_.Compute(physical);
  cumulative_reward_ += reward;

  state_ = std::move(next);
  ++minute_;
  return reward;
}

StepResult IoTEnv::Step(const fsm::ActionVector& agent_action) {
  if (done()) throw std::logic_error("IoTEnv::Step: episode is done");
  double reward = AdvanceMinute(&agent_action);
  int minutes = 1;
  for (; minutes < config_.decision_interval_minutes && !done(); ++minutes) {
    reward += AdvanceMinute(nullptr);
  }
  // The step reward is the *mean per-minute* R_smart over the interval, so
  // Q-value magnitudes stay O(1/(1-gamma)) regardless of the decision
  // interval chosen.
  return {reward / static_cast<double>(minutes), done()};
}

sim::DayMetrics IoTEnv::Metrics() const {
  return sim::ComputeMetrics(fsm_, episode_, natural_.scenario, indoor_c_,
                             thermal_config_);
}

}  // namespace jarvis::rl
