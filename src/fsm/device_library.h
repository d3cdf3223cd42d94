// Catalog of smart-home device models. The first five reproduce Table I of
// the paper (lock, door sensor, light, thermostat, temperature sensor); the
// remaining six extend the home to the k = 11 devices used in the
// functionality evaluation (Section VI-D).
//
// One deliberate extension over Table I: both sensors gain an explicit
// "off" state reached by their "power_off" action. The paper's safety
// discussion hinges on "turning off temperature and door sensors" being an
// observable (and unsafe) transition, which requires the off state to exist
// in the FSM. This is documented in DESIGN.md.
#pragma once

#include <vector>

#include "fsm/device.h"
#include "fsm/environment.h"

namespace jarvis::fsm {

// --- The five Table I devices -------------------------------------------

// D0: smart lock. States: locked_outside, unlocked, off, locked_inside.
// Actions: lock, unlock, power_off, power_on.
Device MakeSmartLock(DeviceId id);

// D1: door touch sensor. States: sensing, auth_user, unauth_user, off.
// Actions: power_off, power_on.
Device MakeDoorSensor(DeviceId id);

// D2: smart light. States: off, on. Actions: power_off, power_on.
Device MakeSmartLight(DeviceId id);

// D3: thermostat controller. States: heat, cool, off.
// Actions: increase_temp, decrease_temp, power_off, power_on.
Device MakeThermostat(DeviceId id);

// D4: temperature sensor. States: above_optimal, below_optimal, optimal,
// fire_alarm, off. Actions: power_off, power_on.
Device MakeTempSensor(DeviceId id);

// --- Additional devices for the 11-device evaluation home ----------------

// D5: refrigerator. States: closed, door_open, off.
// Actions: open_door, close_door, power_off, power_on.
Device MakeFridge(DeviceId id);

// D6: oven. States: off, preheating, baking, door_open.
// Actions: start_preheat, start_bake, open_door, close_door, power_off.
Device MakeOven(DeviceId id);

// D7: television. States: off, standby, on.
// Actions: power_on, power_off, standby.
Device MakeTelevision(DeviceId id);

// D8: washing machine. States: off, idle, washing.
// Actions: power_on, start_cycle, finish_cycle, power_off.
Device MakeWashingMachine(DeviceId id);

// D9: dishwasher. States: off, idle, running.
// Actions: power_on, start_cycle, finish_cycle, power_off.
Device MakeDishwasher(DeviceId id);

// D10: coffee maker. States: off, idle, brewing.
// Actions: power_on, brew, finish_brew, power_off.
Device MakeCoffeeMaker(DeviceId id);

// --- Additional devices for the large-home scalability configuration -----

// Motion sensor. States: no_motion, motion, off. Actions: power_off,
// power_on.
Device MakeMotionSensor(DeviceId id);

// Smart plug (generic 1.5 kW load). States: off, on.
// Actions: power_on, power_off.
Device MakeSmartPlug(DeviceId id);

// Security camera. States: recording, idle, off.
// Actions: start_recording, stop_recording, power_off, power_on.
Device MakeSecurityCamera(DeviceId id);

// Electric water heater. States: standby, heating, off.
// Actions: start_heating, stop_heating, power_off, power_on.
Device MakeWaterHeater(DeviceId id);

// EV charger — the classic deferrable high-power load.
// States: idle, charging, off. Actions: start_charge, stop_charge,
// power_off, power_on.
Device MakeEvCharger(DeviceId id);

// The Table I example home: devices D0..D4 in declaration order.
std::vector<Device> ExampleHomeDevices();

// The full k = 11 evaluation home: D0..D10.
std::vector<Device> FullHomeDevices();

// The k = 16 large home (scalability studies): D0..D15.
std::vector<Device> LargeHomeDevices();

// The full home as an EnvironmentFsm.
EnvironmentFsm BuildFullHome();

}  // namespace jarvis::fsm
