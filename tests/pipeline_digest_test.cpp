// A pinned end-to-end digest of one tenant's learned state. The test
// trains one seeded home the way perfbench's `pipeline` workload does —
// log text -> events -> episodes -> P_safe and the ANN filter, then a
// one-episode constrained DQN run (and, to reach the agent-driven steps, a
// three-episode one) — and compares the FNV-1a hash of each checkpoint
// section with a constant. Every neural kernel, the Adam step
// and the trainer's loop feed those bytes, so a change that moves one bit
// of any weight, moment or table fails here.
//
// The constants were recorded from the commit before the register-blocked
// kernels and the vectorized Adam step landed; a change that is meant to
// alter training must update them and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "events/logger_app.h"
#include "events/parser.h"
#include "fsm/device_library.h"
#include "fsm/episode.h"
#include "rl/dqn_agent.h"
#include "rl/iot_env.h"
#include "rl/trainer.h"
#include "sim/anomaly.h"
#include "sim/resident.h"
#include "sim/scenario.h"
#include "spl/learner.h"
#include "util/rng.h"

namespace jarvis {
namespace {

constexpr std::uint64_t kSplDigest = 0x876fb00a54aa2729ULL;
constexpr std::uint64_t kDqnDigest = 0x64964c2cde20dc70ULL;
constexpr std::uint64_t kThreeEpisodeDqnDigest = 0xec8ae95696a5f85cULL;

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// perfbench's seed streams and sizes: tenant 0 of seed 1, three learning
// days and one day to optimize, 500 benign-anomaly samples.
constexpr std::uint64_t kTenantStream = 7;
constexpr std::uint64_t kResidentStream = 1;
constexpr std::uint64_t kScenarioStream = 2;
constexpr std::uint64_t kAnomalyStream = 3;
constexpr std::uint64_t kSplStream = 4;
constexpr std::uint64_t kDqnStream = 5;
constexpr int kLogDays = 3;
constexpr std::size_t kBenignSamples = 500;

struct Sections {
  std::string spl;
  std::string dqn;
};

// Trains tenant 0 of seed 1 for `dqn_episodes` DQN episodes and returns its
// checkpoint sections.
Sections TrainTenant(int dqn_episodes) {
  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  const std::uint64_t seed =
      util::DeriveSeed(util::DeriveSeed(1, kTenantStream), 0);

  // Simulate the home: a JSON-lines log of the learning days, the labeled
  // set TD, and the day the DQN optimizes.
  sim::ResidentSimulator resident(home, sim::ThermalConfig{},
                                  util::DeriveSeed(seed, kResidentStream));
  const sim::ScenarioGenerator generator(
      {}, {}, {}, util::DeriveSeed(seed, kScenarioStream));
  auto traces = resident.SimulateDays(generator, 0, kLogDays + 1);
  const fsm::StateVector initial_state = resident.OvernightState();
  std::string log_text;
  std::vector<fsm::Episode> simulated;
  for (int day = 0; day < kLogDays; ++day) {
    auto& trace = traces[static_cast<std::size_t>(day)];
    for (const auto& event : trace.events) {
      log_text += event.ToLogLine();
      log_text += '\n';
    }
    simulated.push_back(std::move(trace.episode));
  }
  sim::AnomalyGenerator anomalies(home,
                                  util::DeriveSeed(seed, kAnomalyStream));
  const auto labeled = anomalies.BuildTrainingSet(
      fsm::ExtractTriggerActions(simulated), kBenignSamples);

  // Learn: parse the log back and fit P_safe with its ANN filter.
  const auto events = events::LoggerApp::ParseLog(log_text);
  events::LogParser parser(home, fsm::EpisodeConfig{});
  const auto episodes =
      parser.Parse(events, initial_state, util::SimTime(0));
  spl::SplConfig spl_config;
  spl_config.seed = util::DeriveSeed(seed, kSplStream);
  spl::SafetyPolicyLearner learner(home, spl_config);
  learner.Learn(episodes, labeled);

  // Optimize: constrained training on the following day.
  rl::IoTEnvConfig env_config;
  env_config.constrained = true;
  rl::IoTEnv env(home, traces[kLogDays], sim::ThermalConfig{}, &learner,
                 env_config);
  rl::DqnConfig dqn_config;
  dqn_config.seed = util::DeriveSeed(seed, kDqnStream);
  rl::DqnAgent agent(env.feature_width(), home.codec(), dqn_config);
  rl::TrainerConfig trainer;
  trainer.episodes = dqn_episodes;
  rl::Train(env, agent, trainer);
  return {learner.ToJsonString(), agent.ToJson().Dump()};
}

// The pipeline's run: one episode, a demonstration (the resident's own
// behavior drives the home while the DQN replays).
TEST(PipelineDigest, OneEpisodeTenantMatchesPinnedDigests) {
  const Sections sections = TrainTenant(1);
  EXPECT_EQ(Fnv1a(sections.spl), kSplDigest) << "the spl section changed";
  EXPECT_EQ(Fnv1a(sections.dqn), kDqnDigest) << "the dqn section changed";
}

// Three episodes: after the two demonstrations the agent drives the home
// through its own features and P_safe masks, and Train keeps the best of
// three greedy evaluations.
TEST(PipelineDigest, ThreeEpisodeTenantMatchesPinnedDigest) {
  const Sections sections = TrainTenant(3);
  EXPECT_EQ(Fnv1a(sections.spl), kSplDigest) << "the spl section changed";
  EXPECT_EQ(Fnv1a(sections.dqn), kThreeEpisodeDqnDigest)
      << "the dqn section changed";
}

}  // namespace
}  // namespace jarvis
