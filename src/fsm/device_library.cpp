#include "fsm/device_library.h"

namespace jarvis::fsm {

Device MakeSmartLock(DeviceId id) {
  return Device::Builder(id, "lock", DeviceClass::kSecurity)
      .AddState("locked_outside", 5.0)
      .AddState("unlocked", 5.0)
      .AddState("off", 0.0)
      .AddState("locked_inside", 5.0)
      .AddAction("lock")
      .AddAction("unlock")
      .AddAction("power_off")
      .AddAction("power_on")
      .SetTransition("unlocked", "lock", "locked_outside")
      .SetTransition("locked_inside", "lock", "locked_outside")
      .SetTransition("locked_outside", "unlock", "unlocked")
      .SetTransition("locked_inside", "unlock", "unlocked")
      .SetTransition("locked_outside", "power_off", "off")
      .SetTransition("unlocked", "power_off", "off")
      .SetTransition("locked_inside", "power_off", "off")
      .SetTransition("off", "power_on", "locked_outside")
      .SetDefaultDisUtility(0.9)
      .Build();
}

Device MakeDoorSensor(DeviceId id) {
  return Device::Builder(id, "door_sensor", DeviceClass::kSensor)
      .AddState("sensing", 2.0)
      .AddState("auth_user", 2.0)
      .AddState("unauth_user", 2.0)
      .AddState("off", 0.0)
      .AddAction("power_off")
      .AddAction("power_on")
      .SetTransition("sensing", "power_off", "off")
      .SetTransition("auth_user", "power_off", "off")
      .SetTransition("unauth_user", "power_off", "off")
      .SetTransition("off", "power_on", "sensing")
      .SetDefaultDisUtility(0.85)
      .Build();
}

Device MakeSmartLight(DeviceId id) {
  return Device::Builder(id, "light", DeviceClass::kLighting)
      .AddState("off", 0.0)
      .AddState("on", 60.0)
      .AddAction("power_off")
      .AddAction("power_on")
      .SetTransition("on", "power_off", "off")
      .SetTransition("off", "power_on", "on")
      .SetDefaultDisUtility(0.8)
      .Build();
}

Device MakeThermostat(DeviceId id) {
  // "increase_temp" switches the unit to heating, "decrease_temp" to
  // cooling, matching Table I's action semantics.
  return Device::Builder(id, "thermostat", DeviceClass::kHvac)
      .AddState("heat", 2500.0)
      .AddState("cool", 2000.0)
      .AddState("off", 0.0)
      .AddAction("increase_temp")
      .AddAction("decrease_temp")
      .AddAction("power_off")
      .AddAction("power_on")
      .SetTransition("off", "increase_temp", "heat")
      .SetTransition("cool", "increase_temp", "heat")
      .SetTransition("off", "decrease_temp", "cool")
      .SetTransition("heat", "decrease_temp", "cool")
      .SetTransition("heat", "power_off", "off")
      .SetTransition("cool", "power_off", "off")
      .SetTransition("off", "power_on", "heat")
      .SetDefaultDisUtility(0.2)
      .Build();
}

Device MakeTempSensor(DeviceId id) {
  return Device::Builder(id, "temp_sensor", DeviceClass::kSensor)
      .AddState("above_optimal", 2.0)
      .AddState("below_optimal", 2.0)
      .AddState("optimal", 2.0)
      .AddState("fire_alarm", 2.0)
      .AddState("off", 0.0)
      .AddAction("power_off")
      .AddAction("power_on")
      .SetTransition("above_optimal", "power_off", "off")
      .SetTransition("below_optimal", "power_off", "off")
      .SetTransition("optimal", "power_off", "off")
      .SetTransition("fire_alarm", "power_off", "off")
      .SetTransition("off", "power_on", "optimal")
      .SetDefaultDisUtility(0.85)
      .Build();
}

Device MakeFridge(DeviceId id) {
  return Device::Builder(id, "fridge", DeviceClass::kAppliance)
      .AddState("closed", 150.0)
      .AddState("door_open", 220.0)
      .AddState("off", 0.0)
      .AddAction("open_door")
      .AddAction("close_door")
      .AddAction("power_off")
      .AddAction("power_on")
      .SetTransition("closed", "open_door", "door_open")
      .SetTransition("door_open", "close_door", "closed")
      .SetTransition("closed", "power_off", "off")
      .SetTransition("door_open", "power_off", "off")
      .SetTransition("off", "power_on", "closed")
      // A fridge must not stay open or be powered off for long; treat its
      // corrective actions as fairly urgent.
      .SetDefaultDisUtility(0.5)
      .Build();
}

Device MakeOven(DeviceId id) {
  return Device::Builder(id, "oven", DeviceClass::kAppliance)
      .AddState("off", 0.0)
      .AddState("preheating", 2400.0)
      .AddState("baking", 2000.0)
      .AddState("door_open", 800.0)
      .AddAction("start_preheat")
      .AddAction("start_bake")
      .AddAction("open_door")
      .AddAction("close_door")
      .AddAction("power_off")
      .SetTransition("off", "start_preheat", "preheating")
      .SetTransition("preheating", "start_bake", "baking")
      .SetTransition("baking", "open_door", "door_open")
      .SetTransition("door_open", "close_door", "baking")
      .SetTransition("preheating", "power_off", "off")
      .SetTransition("baking", "power_off", "off")
      .SetTransition("door_open", "power_off", "off")
      .SetDefaultDisUtility(0.3)
      .Build();
}

Device MakeTelevision(DeviceId id) {
  return Device::Builder(id, "tv", DeviceClass::kEntertainment)
      .AddState("off", 0.0)
      .AddState("standby", 10.0)
      .AddState("on", 120.0)
      .AddAction("power_on")
      .AddAction("power_off")
      .AddAction("standby")
      .SetTransition("off", "power_on", "on")
      .SetTransition("standby", "power_on", "on")
      .SetTransition("on", "power_off", "off")
      .SetTransition("standby", "power_off", "off")
      .SetTransition("on", "standby", "standby")
      .SetDefaultDisUtility(0.4)
      .Build();
}

Device MakeWashingMachine(DeviceId id) {
  return Device::Builder(id, "washer", DeviceClass::kAppliance)
      .AddState("off", 0.0)
      .AddState("idle", 5.0)
      .AddState("washing", 500.0)
      .AddAction("power_on")
      .AddAction("start_cycle")
      .AddAction("finish_cycle")
      .AddAction("power_off")
      .SetTransition("off", "power_on", "idle")
      .SetTransition("idle", "start_cycle", "washing")
      .SetTransition("washing", "finish_cycle", "idle")
      .SetTransition("idle", "power_off", "off")
      .SetTransition("washing", "power_off", "off")
      .SetDefaultDisUtility(0.15)
      .Build();
}

Device MakeDishwasher(DeviceId id) {
  return Device::Builder(id, "dishwasher", DeviceClass::kAppliance)
      .AddState("off", 0.0)
      .AddState("idle", 5.0)
      .AddState("running", 1800.0)
      .AddAction("power_on")
      .AddAction("start_cycle")
      .AddAction("finish_cycle")
      .AddAction("power_off")
      .SetTransition("off", "power_on", "idle")
      .SetTransition("idle", "start_cycle", "running")
      .SetTransition("running", "finish_cycle", "idle")
      .SetTransition("idle", "power_off", "off")
      .SetTransition("running", "power_off", "off")
      .SetDefaultDisUtility(0.15)
      .Build();
}

Device MakeCoffeeMaker(DeviceId id) {
  return Device::Builder(id, "coffee_maker", DeviceClass::kAppliance)
      .AddState("off", 0.0)
      .AddState("idle", 2.0)
      .AddState("brewing", 900.0)
      .AddAction("power_on")
      .AddAction("brew")
      .AddAction("finish_brew")
      .AddAction("power_off")
      .SetTransition("off", "power_on", "idle")
      .SetTransition("idle", "brew", "brewing")
      .SetTransition("brewing", "finish_brew", "idle")
      .SetTransition("idle", "power_off", "off")
      .SetTransition("brewing", "power_off", "off")
      // Morning coffee is time-sensitive for most users.
      .SetDefaultDisUtility(0.6)
      .Build();
}

Device MakeMotionSensor(DeviceId id) {
  return Device::Builder(id, "motion_sensor", DeviceClass::kSensor)
      .AddState("no_motion", 1.0)
      .AddState("motion", 1.0)
      .AddState("off", 0.0)
      .AddAction("power_off")
      .AddAction("power_on")
      .SetTransition("no_motion", "power_off", "off")
      .SetTransition("motion", "power_off", "off")
      .SetTransition("off", "power_on", "no_motion")
      .SetDefaultDisUtility(0.85)
      .Build();
}

Device MakeSmartPlug(DeviceId id) {
  return Device::Builder(id, "smart_plug", DeviceClass::kAppliance)
      .AddState("off", 0.0)
      .AddState("on", 1500.0)
      .AddAction("power_on")
      .AddAction("power_off")
      .SetTransition("off", "power_on", "on")
      .SetTransition("on", "power_off", "off")
      .SetDefaultDisUtility(0.25)
      .Build();
}

Device MakeSecurityCamera(DeviceId id) {
  return Device::Builder(id, "camera", DeviceClass::kSecurity)
      .AddState("recording", 8.0)
      .AddState("idle", 3.0)
      .AddState("off", 0.0)
      .AddAction("start_recording")
      .AddAction("stop_recording")
      .AddAction("power_off")
      .AddAction("power_on")
      .SetTransition("idle", "start_recording", "recording")
      .SetTransition("recording", "stop_recording", "idle")
      .SetTransition("recording", "power_off", "off")
      .SetTransition("idle", "power_off", "off")
      .SetTransition("off", "power_on", "idle")
      .SetDefaultDisUtility(0.9)
      .Build();
}

Device MakeWaterHeater(DeviceId id) {
  return Device::Builder(id, "water_heater", DeviceClass::kHvac)
      .AddState("standby", 30.0)
      .AddState("heating", 4000.0)
      .AddState("off", 0.0)
      .AddAction("start_heating")
      .AddAction("stop_heating")
      .AddAction("power_off")
      .AddAction("power_on")
      .SetTransition("standby", "start_heating", "heating")
      .SetTransition("heating", "stop_heating", "standby")
      .SetTransition("standby", "power_off", "off")
      .SetTransition("heating", "power_off", "off")
      .SetTransition("off", "power_on", "standby")
      .SetDefaultDisUtility(0.2)
      .Build();
}

Device MakeEvCharger(DeviceId id) {
  return Device::Builder(id, "ev_charger", DeviceClass::kAppliance)
      .AddState("idle", 10.0)
      .AddState("charging", 7000.0)
      .AddState("off", 0.0)
      .AddAction("start_charge")
      .AddAction("stop_charge")
      .AddAction("power_off")
      .AddAction("power_on")
      .SetTransition("idle", "start_charge", "charging")
      .SetTransition("charging", "stop_charge", "idle")
      .SetTransition("idle", "power_off", "off")
      .SetTransition("charging", "power_off", "off")
      .SetTransition("off", "power_on", "idle")
      // Overnight charging is flexible; the car only needs to be full by
      // morning.
      .SetDefaultDisUtility(0.1)
      .Build();
}

std::vector<Device> ExampleHomeDevices() {
  std::vector<Device> devices;
  devices.push_back(MakeSmartLock(0));
  devices.push_back(MakeDoorSensor(1));
  devices.push_back(MakeSmartLight(2));
  devices.push_back(MakeThermostat(3));
  devices.push_back(MakeTempSensor(4));
  return devices;
}

std::vector<Device> FullHomeDevices() {
  std::vector<Device> devices = ExampleHomeDevices();
  devices.push_back(MakeFridge(5));
  devices.push_back(MakeOven(6));
  devices.push_back(MakeTelevision(7));
  devices.push_back(MakeWashingMachine(8));
  devices.push_back(MakeDishwasher(9));
  devices.push_back(MakeCoffeeMaker(10));
  return devices;
}

std::vector<Device> LargeHomeDevices() {
  std::vector<Device> devices = FullHomeDevices();
  devices.push_back(MakeMotionSensor(11));
  devices.push_back(MakeSmartPlug(12));
  devices.push_back(MakeSecurityCamera(13));
  devices.push_back(MakeWaterHeater(14));
  devices.push_back(MakeEvCharger(15));
  return devices;
}

EnvironmentFsm BuildFullHome() { return EnvironmentFsm(FullHomeDevices()); }

}  // namespace jarvis::fsm
