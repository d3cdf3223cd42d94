#include "sim/resident.h"

#include <algorithm>
#include <stdexcept>

#include "events/handler.h"

namespace jarvis::sim {

HomeRefs::HomeRefs(const fsm::EnvironmentFsm& fsm)
    : lock(fsm.FindDevice("lock")),
      door_sensor(fsm.FindDevice("door_sensor")),
      light(fsm.FindDevice("light")),
      thermostat(fsm.FindDevice("thermostat")),
      temp_sensor(fsm.FindDevice("temp_sensor")),
      fridge(fsm.FindDevice("fridge")),
      oven(fsm.FindDevice("oven")),
      tv(fsm.FindDevice("tv")),
      washer(fsm.FindDevice("washer")),
      dishwasher(fsm.FindDevice("dishwasher")),
      coffee_maker(fsm.FindDevice("coffee_maker")) {}

ResidentSimulator::ResidentSimulator(const fsm::EnvironmentFsm& fsm,
                                     ThermalConfig thermal, std::uint64_t seed,
                                     BehaviorConfig behavior)
    : fsm_(fsm),
      refs_(fsm),
      thermal_config_(thermal),
      behavior_(behavior),
      rng_(seed) {}

fsm::StateVector ResidentSimulator::OvernightState() const {
  fsm::StateVector state(fsm_.device_count(), 0);
  auto set = [&](const std::optional<fsm::DeviceId>& id,
                 const std::string& state_name) {
    if (!id) return;
    const auto& device = fsm_.device(*id);
    const auto index = device.FindState(state_name);
    if (!index) throw std::logic_error("OvernightState: bad state name");
    state[static_cast<std::size_t>(*id)] = *index;
  };
  set(refs_.lock, "locked_outside");
  set(refs_.door_sensor, "sensing");
  set(refs_.light, "off");
  set(refs_.thermostat, "off");
  set(refs_.temp_sensor, "optimal");
  set(refs_.fridge, "closed");
  set(refs_.oven, "off");
  set(refs_.tv, "off");
  set(refs_.washer, "off");
  set(refs_.dishwasher, "off");
  set(refs_.coffee_maker, "off");
  return state;
}

DayTrace ResidentSimulator::SimulateDay(const DayScenario& scenario,
                                        const fsm::StateVector& initial_state,
                                        double initial_indoor_c) {
  fsm_.ValidateState(initial_state);
  ThermalModel thermal(thermal_config_);
  thermal.set_indoor_temp_c(initial_indoor_c);

  const util::SimTime day_start =
      util::SimTime::FromDayAndMinute(scenario.day, 0);
  DayTrace trace{scenario,
                 fsm::Episode({util::kMinutesPerDay, 1}, day_start,
                              initial_state),
                 {},
                 {},
                 {}};
  trace.indoor_c.reserve(util::kMinutesPerDay);

  fsm::StateVector state = initial_state;

  // Pending timed actions: (minute, device, action_name, via_app).
  struct Pending {
    int minute;
    fsm::DeviceId device;
    std::string action;
    std::string app;
  };
  std::vector<Pending> pending;
  auto schedule = [&](int minute, std::optional<fsm::DeviceId> device,
                      const std::string& action, const std::string& app) {
    if (!device || minute < 0 || minute >= util::kMinutesPerDay) return;
    pending.push_back({minute, *device, action, app});
  };

  // Demands turn into start + finish actions.
  for (const auto& demand : scenario.demands) {
    const auto device = fsm_.FindDevice(demand.device_label);
    if (!device) continue;
    schedule(demand.preferred_minute, device, demand.action_name, "manual");
    const int finish = demand.preferred_minute + demand.duration_minutes;
    if (demand.device_label == "oven") {
      schedule(demand.preferred_minute + 10, device, "start_bake", "manual");
      schedule(finish, device, "power_off", "manual");
    } else if (demand.device_label == "dishwasher" ||
               demand.device_label == "washer") {
      schedule(finish, device, "finish_cycle", "manual");
    } else if (demand.device_label == "coffee_maker") {
      // power on just before brewing, off after.
      schedule(demand.preferred_minute - 1, device, "power_on", "manual");
      schedule(finish, device, "finish_brew", "manual");
      schedule(finish + 2, device, "power_off", "manual");
    } else if (demand.device_label == "tv") {
      schedule(finish, device, "power_off", "manual");
    }
  }
  // Washers/dishwashers need power_on before their cycle.
  for (const auto& demand : scenario.demands) {
    if (demand.device_label == "dishwasher" || demand.device_label == "washer") {
      schedule(demand.preferred_minute - 1,
               fsm_.FindDevice(demand.device_label), "power_on", "manual");
    }
  }
  // Fridge opens briefly around meals.
  if (refs_.fridge) {
    for (int meal :
         {scenario.wake_minute + 20, 12 * 60 + 15, 18 * 60 + 40}) {
      if (meal >= util::kMinutesPerDay) continue;
      schedule(meal, refs_.fridge, "open_door", "manual");
      schedule(meal + 2, refs_.fridge, "close_door", "manual");
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) {
              return a.minute < b.minute;
            });

  std::size_t pending_cursor = 0;

  auto is_dark = [](int minute) {
    return minute < 6 * 60 + 45 || minute >= 17 * 60 + 45;
  };

  for (int minute = 0; minute < util::kMinutesPerDay; ++minute) {
    const util::SimTime now = day_start + minute;
    const bool occupied = scenario.occupied[static_cast<std::size_t>(minute)];
    const bool awake =
        scenario.someone_awake[static_cast<std::size_t>(minute)];

    fsm::ActionVector action(fsm_.device_count(), fsm::kNoAction);
    std::vector<bool> acted(fsm_.device_count(), false);

    auto act = [&](std::optional<fsm::DeviceId> id, const std::string& name,
                   const std::string& app) {
      if (!id) return;
      const auto idx = static_cast<std::size_t>(*id);
      if (acted[idx]) return;  // one action per device per interval
      const auto& device = fsm_.device(*id);
      const auto action_index = device.FindAction(name);
      if (!action_index) throw std::logic_error("bad action name: " + name);
      if (!device.ActionHasEffect(state[idx], *action_index)) return;
      action[idx] = *action_index;
      acted[idx] = true;

      trace.events.push_back(events::MakeEvent(
          device, now, device.Transition(state[idx], *action_index),
          *action_index, "user0", app, "home", "main"));
    };

    // Departure / arrival routines (Apps 1, 3, 5 of Table II). The door
    // unlocks when the household wakes (morning routine), locks at
    // departure (m), and App 5 reacts to the departure trigger (m+1) —
    // unless the user forgot to arm it that day.
    const bool departing =
        std::find(scenario.departure_minutes.begin(),
                  scenario.departure_minutes.end(),
                  minute) != scenario.departure_minutes.end();
    const bool just_departed =
        minute > 0 &&
        std::find(scenario.departure_minutes.begin(),
                  scenario.departure_minutes.end(),
                  minute - 1) != scenario.departure_minutes.end();
    const bool arriving =
        std::find(scenario.arrival_minutes.begin(),
                  scenario.arrival_minutes.end(),
                  minute) != scenario.arrival_minutes.end();

    // Door sensor exogenous state (auth_user blip on arrival).
    if (refs_.door_sensor) {
      const auto idx = static_cast<std::size_t>(*refs_.door_sensor);
      const auto& sensor = fsm_.device(*refs_.door_sensor);
      fsm::StateIndex sensor_state = *sensor.FindState("sensing");
      if (arriving) sensor_state = *sensor.FindState("auth_user");
      if (state[idx] != sensor_state &&
          state[idx] != *sensor.FindState("off")) {
        state[idx] = sensor_state;
        trace.events.push_back(events::MakeEvent(
            sensor, now, sensor_state, fsm::kNoAction, "", "", "home", "main"));
      }
    }

    if (arriving) {
      act(refs_.lock, "unlock", "unlock-door-on-auth-user");
      if (is_dark(minute)) act(refs_.light, "power_on", "lights-on-arrival");
    }
    if (departing) {
      act(refs_.lock, "lock", "manual");
    }
    if (just_departed) {
      // App 5 reacts to the departure (lock + nobody home). Human
      // imperfection: some days the shutdown does not happen and the
      // devices keep drawing power until the user returns.
      if (!rng_.NextBool(behavior_.forget_on_departure)) {
        act(refs_.light, "power_off", "leave-home-shutdown");
        act(refs_.thermostat, "power_off", "leave-home-shutdown");
        act(refs_.tv, "power_off", "leave-home-shutdown");
      }
    }

    // Wake / sleep routines.
    if (minute == scenario.wake_minute) {
      act(refs_.lock, "unlock", "manual");  // morning deadbolt routine
      if (is_dark(minute)) act(refs_.light, "power_on", "manual");
    }
    if (minute == scenario.sleep_minute) {
      act(refs_.light, "power_off", "manual");
      act(refs_.lock, "lock", "manual");
      act(refs_.tv, "power_off", "manual");
    }
    // Lights when darkness falls while people are up and home.
    if (occupied && awake && minute == 17 * 60 + 45) {
      act(refs_.light, "power_on", "manual");
    }

    // Comfort-driven thermostat (App 2), active while the house is
    // occupied; the temperature sensor state is driven by the thermal
    // model below. Real users react on a human timescale, not per minute.
    const bool user_checks_temp =
        behavior_.thermostat_reaction_minutes <= 1 ||
        minute % behavior_.thermostat_reaction_minutes == 0;
    if (refs_.thermostat && refs_.temp_sensor && occupied && user_checks_temp) {
      const auto sensor_idx = static_cast<std::size_t>(*refs_.temp_sensor);
      const auto& sensor = fsm_.device(*refs_.temp_sensor);
      const fsm::StateIndex sensor_state = state[sensor_idx];
      if (sensor_state == *sensor.FindState("below_optimal")) {
        act(refs_.thermostat, "increase_temp", "maintain-optimal-temperature");
      } else if (sensor_state == *sensor.FindState("above_optimal")) {
        act(refs_.thermostat, "decrease_temp", "maintain-optimal-temperature");
      } else if (sensor_state == *sensor.FindState("optimal")) {
        act(refs_.thermostat, "power_off", "maintain-optimal-temperature");
      }
    }

    // Scheduled demand actions (only while someone is home and awake).
    while (pending_cursor < pending.size() &&
           pending[pending_cursor].minute <= minute) {
      const auto& p = pending[pending_cursor];
      if (p.minute == minute && occupied && awake) {
        act(p.device, p.action, p.app);
      }
      ++pending_cursor;
    }

    // Record the step, then advance device states and physics.
    trace.episode.Record(now, state, action);
    state = fsm_.Apply(state, action);

    // Thermal step driven by the thermostat state just entered.
    HvacMode mode = HvacMode::kOff;
    if (refs_.thermostat) {
      const auto thermostat_state =
          state[static_cast<std::size_t>(*refs_.thermostat)];
      if (thermostat_state <= 2) {
        mode = HvacModeFromThermostatState(thermostat_state);
      }
    }
    thermal.Step(mode, scenario.outdoor_c[static_cast<std::size_t>(minute)]);
    trace.indoor_c.push_back(thermal.indoor_temp_c());

    // Temperature sensor exogenous update.
    if (refs_.temp_sensor) {
      const auto idx = static_cast<std::size_t>(*refs_.temp_sensor);
      const auto& sensor = fsm_.device(*refs_.temp_sensor);
      const fsm::StateIndex new_state = thermal.SensorState();
      if (state[idx] != new_state && state[idx] != *sensor.FindState("off") &&
          state[idx] != *sensor.FindState("fire_alarm")) {
        state[idx] = new_state;
        // The reading changed *after* this minute's physics step, so the
        // event carries the next minute's timestamp — the state it
        // describes is the one recorded at minute + 1. A change after the
        // day's final minute has no step to describe and is not emitted.
        if (minute + 1 < util::kMinutesPerDay) {
          trace.events.push_back(events::MakeEvent(
              sensor, now + 1, new_state, fsm::kNoAction, "", "", "home",
              "main"));
        }
      }
    }
  }

  trace.metrics = ComputeMetrics(fsm_, trace.episode, scenario, trace.indoor_c,
                                 thermal_config_);
  return trace;
}

std::vector<DayTrace> ResidentSimulator::SimulateDays(
    const ScenarioGenerator& generator, int start_day, int day_count) {
  std::vector<DayTrace> traces;
  fsm::StateVector state = OvernightState();
  double indoor_c = thermal_config_.initial_indoor_c;
  for (int d = 0; d < day_count; ++d) {
    const DayScenario scenario = generator.Generate(start_day + d);
    traces.push_back(SimulateDay(scenario, state, indoor_c));
    state = traces.back().episode.FinalState(fsm_);
    indoor_c = traces.back().indoor_c.back();
  }
  return traces;
}

DayMetrics ComputeMetrics(const fsm::EnvironmentFsm& fsm,
                          const fsm::Episode& episode,
                          const DayScenario& scenario,
                          const std::vector<double>& indoor_c,
                          const ThermalConfig& thermal) {
  DayMetrics metrics;
  for (std::size_t step = 0; step < episode.steps().size(); ++step) {
    const auto& record = episode.steps()[step];
    double watts = 0.0;
    for (std::size_t i = 0; i < fsm.device_count(); ++i) {
      watts += fsm.devices()[i].PowerDraw(record.state[i]);
    }
    const double kwh = watts / 1000.0 / 60.0;  // one-minute interval
    metrics.energy_kwh += kwh;
    const int minute = record.time.minute_of_day();
    metrics.cost_usd +=
        kwh * scenario.price_usd_per_kwh[static_cast<std::size_t>(minute)];

    if (step < indoor_c.size()) {
      const double temp = indoor_c[step];
      double error = 0.0;
      if (temp > thermal.optimal_high_c) error = temp - thermal.optimal_high_c;
      if (temp < thermal.optimal_low_c) error = thermal.optimal_low_c - temp;
      metrics.comfort_error_all_c_min += error;
      if (scenario.occupied[static_cast<std::size_t>(minute)]) {
        metrics.comfort_error_c_min += error;
      }
    }
  }
  return metrics;
}

}  // namespace jarvis::sim
