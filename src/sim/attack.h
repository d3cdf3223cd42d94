// Security-violation generator: reproduces the paper's 214 manually
// crafted violation instances (Section VI-B), drawn from the five types
// distilled from Soteria [4], IoTGuard [5], and Ding & Hu [19]:
//
//   Type 1 (114): trigger/action safety violations — an unsafe action for
//           the current context, e.g. unlocking the door while nobody is
//           home, powering off the temperature or door sensors, cutting
//           the heater while the house is cold at night.
//   Type 2 (40): integrity / access-control violations — actions issued
//           through apps or users without the required subscriptions, or
//           in unauthenticated contexts (door sensor reporting an
//           unauthorized user).
//   Type 3 (40): conflicting-action / race violations — joint actions that
//           contradict each other or never co-occur naturally in a single
//           interval (lock-and-unlock races, heat-while-venting).
//   Type 4 (10): malicious apps causing safety violations — app-attributed
//           chains such as suppressing the temperature sensor and then
//           running the oven.
//   Type 5 (10): insider attacks — authorized users acting at hours and in
//           contexts that natural behavior never produces (3am unlocks).
//
// Every instance is a concrete unsafe state transition (S, A) at a minute
// of day, injectable into episodes to build the 21,400 malicious
// episodes of the evaluation.
#pragma once

#include <string>
#include <vector>

#include "fsm/environment.h"
#include "fsm/episode.h"
#include "util/rng.h"

namespace jarvis::sim {

enum class ViolationType {
  kTriggerActionSafety = 1,
  kAccessControl = 2,
  kConflictRace = 3,
  kMaliciousApp = 4,
  kInsider = 5,
};

std::string ViolationTypeName(ViolationType type);

struct Violation {
  ViolationType type;
  std::string description;
  fsm::StateVector state;    // the trigger context S
  fsm::ActionVector action;  // the unsafe action A
  int minute;                // minute-of-day the attack fires
};

// Paper-exact counts per type.
struct ViolationCounts {
  int type1 = 114;
  int type2 = 40;
  int type3 = 40;
  int type4 = 10;
  int type5 = 10;
  int total() const { return type1 + type2 + type3 + type4 + type5; }
};

class AttackGenerator {
 public:
  // Requires the full 11-device home (the evaluation testbed); throws when
  // required devices are missing.
  AttackGenerator(const fsm::EnvironmentFsm& fsm, std::uint64_t seed);

  // Generates all violations with the paper's counts (default 214). All
  // (state, action) pairs are pairwise distinct.
  std::vector<Violation> GenerateAll(ViolationCounts counts = {}) const;

  // Splices a violation into a copy of the episode: the step at the
  // violation's minute has its state replaced by the violation context and
  // its action replaced by the unsafe action.
  static fsm::Episode InjectIntoEpisode(const fsm::EnvironmentFsm& fsm,
                                        const fsm::Episode& base,
                                        const Violation& violation);

 private:
  const fsm::EnvironmentFsm& fsm_;
  std::uint64_t seed_;
};

}  // namespace jarvis::sim
