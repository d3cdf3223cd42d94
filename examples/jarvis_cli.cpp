// jarvis_cli: a file-based command-line driver for the full pipeline — the
// workflow a deployment would actually script. Learnt state lives in one
// file: the versioned, checksummed checkpoint of DESIGN.md §14.
//
//   jarvis_cli simulate --days 14 --out events.log
//       Simulate natural resident behavior and write the event log.
//   jarvis_cli learn --log events.log --out home.ckpt [--day 42]
//       Run the learning phase (parse log -> Algorithm 1) and save the
//       learnt policies as a checkpoint. With --day, also train the DQN
//       for that day and save it too.
//   jarvis_cli audit --log suspect.log --checkpoint home.ckpt
//       Replay a log through the detector and report flags.
//   jarvis_cli optimize --checkpoint home.ckpt --day 42 --focus energy --f 0.8
//       Train the constrained DQN for a day and compare against normal.
//   jarvis_cli suggest --checkpoint home.ckpt --minute 480
//       Print the best safe action for the overnight state at a minute.
//   jarvis_cli fleet --fleet 8 --jobs 4
//       Run a multi-tenant fleet (one Jarvis pipeline per simulated home)
//       across a worker pool and print the per-tenant and aggregate report.
//   jarvis_cli metrics --fleet 2
//       Run a small instrumented fleet and dump the observability export as
//       JSON: fleet-level metrics (run counters, per-phase timers) and
//       aggregated tenant metrics. tools/check_metrics.py validates it.
//   jarvis_cli client <ping|health|metrics|suggest|minutes|ingest|checkpoint|shutdown>
//       Thin client for a running jarvis_serve daemon: frames one request
//       (an ingest log past half the frame cap: several) over the wire
//       protocol (DESIGN.md §15), prints the JSON response, and exits 0
//       iff it is ok.
//
// audit, optimize and suggest restore the checkpoint section by section
// (the learning phase is skipped; a saved DQN warm-starts training), print
// one line saying what came back, and exit 1 when the policies did not
// restore. All subcommands run on the standard 11-device home.
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/jarvis.h"
#include "runtime/fleet.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "sim/testbed.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/timeofday.h"

namespace {

using namespace jarvis;

int Usage() {
  std::printf(
      "usage: jarvis_cli <simulate|learn|audit|optimize|suggest|fleet|"
      "metrics|client> [flags]\n"
      "  simulate --days N --out FILE [--seed S]\n"
      "  learn    --log FILE --out FILE [--day N] [--episodes N] [--seed S]\n"
      "  audit    --log FILE --checkpoint FILE\n"
      "  optimize --checkpoint FILE [--day N] [--focus energy|cost|temp] "
      "[--f W] [--episodes N]\n"
      "  suggest  --checkpoint FILE [--day N] [--minute M] [--episodes N]\n"
      "  fleet    [--fleet N] [--jobs N] [--days N] [--episodes N] "
      "[--seed S]\n"
      "  metrics  [--fleet N] [--jobs N] [--days N] [--episodes N] "
      "[--seed S] [--out FILE]\n"
      "  client   <ping|health|metrics|suggest|minutes|ingest|checkpoint|"
      "shutdown>\n"
      "           [--port P | --port-file FILE] [--host H] [--tenant N]\n"
      "           [--minute M] [--minutes A,B,..] [--log FILE]\n");
  return 2;
}

sim::Testbed MakeTestbed(std::uint64_t seed) {
  sim::TestbedConfig config;
  config.seed = seed;
  config.benign_anomaly_samples = 6000;
  return sim::Testbed(config);
}

// Config of a pipeline restored from --checkpoint: a DQN the checkpoint
// carries seeds OptimizeDay's first restart instead of a cold network.
core::JarvisConfig RestoredConfig(const util::Flags& flags, int episodes) {
  core::JarvisConfig config;
  config.trainer.episodes = flags.GetInt("episodes", episodes);
  config.warm_start_dqn = true;
  return config;
}

// Restores --checkpoint into `jarvis` and prints what came back. Returns
// false when the policies did not restore.
bool RestoreCheckpoint(const util::Flags& flags, core::Jarvis& jarvis) {
  const std::string path = flags.GetString("checkpoint", "home.ckpt");
  const core::Jarvis::RestoreReport report = jarvis.LoadCheckpoint(path);
  std::printf("restore %s: %s, %zu sections restored, %zu failed\n",
              path.c_str(), report.file_found ? "found" : "missing",
              report.sections_restored, report.sections_failed);
  if (!report.issues.empty()) {
    std::printf("issues: %s\n", persist::FormatIssues(report.issues).c_str());
  }
  if (!report.spl_restored) {
    std::printf("policies not restored — re-run learn\n");
  }
  return report.spl_restored;
}

int Simulate(const util::Flags& flags) {
  const int days = flags.GetInt("days", 14);
  const std::string out = flags.GetString("out", "events.log");
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  sim::ResidentSimulator resident(home, sim::ThermalConfig{}, seed);
  const sim::ScenarioGenerator generator({}, {}, {}, seed);
  const auto traces = resident.SimulateDays(generator, 0, days);

  std::string log;
  std::size_t events = 0;
  for (const auto& trace : traces) {
    for (const auto& event : trace.events) {
      log += event.ToLogLine();
      log.push_back('\n');
      ++events;
    }
  }
  util::io::AtomicWriteFile(out, log);
  std::printf("simulated %d days -> %zu events -> %s\n", days, events,
              out.c_str());
  return 0;
}

int Learn(const util::Flags& flags) {
  const std::string log_path = flags.GetString("log", "events.log");
  const std::string out = flags.GetString("out", "home.ckpt");
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const int day = flags.GetInt("day", -1);

  sim::Testbed testbed = MakeTestbed(seed);
  core::JarvisConfig config;
  config.trainer.episodes = flags.GetInt("episodes", 24);
  core::Jarvis jarvis(testbed.home_a(), config);

  std::size_t dropped = 0;
  const auto events =
      events::LoggerApp::ParseLog(util::io::ReadFile(log_path), &dropped);
  sim::ResidentSimulator resident(testbed.home_a(), sim::ThermalConfig{},
                                  seed);
  const std::size_t episodes = jarvis.LearnFromEvents(
      events, resident.OvernightState(), util::SimTime(0),
      testbed.BuildTrainingSet());
  if (day >= 0) {
    jarvis.OptimizeDay(testbed.home_b_data().Day(day), rl::RewardWeights{});
  }
  jarvis.SaveCheckpoint(out);
  std::printf("parsed %zu events (%zu dropped) -> %zu learning episodes -> "
              "%zu safe patterns%s -> %s\n",
              events.size(), dropped, episodes,
              jarvis.learner().table().admitted_key_count(),
              day >= 0 ? " + trained DQN" : "", out.c_str());
  return 0;
}

int Audit(const util::Flags& flags) {
  const std::string log_path = flags.GetString("log", "events.log");

  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  core::Jarvis jarvis(home, core::JarvisConfig{});
  if (!RestoreCheckpoint(flags, jarvis)) return 1;

  std::size_t dropped = 0;
  const auto events =
      events::LoggerApp::ParseLog(util::io::ReadFile(log_path), &dropped);
  events::LogParser parser(home, {util::kMinutesPerDay, 1});
  sim::ResidentSimulator resident(home, sim::ThermalConfig{}, 1);
  const auto episodes = parser.Parse(events, resident.OvernightState(),
                                     events.empty() ? util::SimTime(0)
                                                    : events.front().date,
                                     /*keep_partial=*/true);

  std::size_t checked = 0, violations = 0, benign = 0;
  for (const auto& episode : episodes) {
    const auto audit = jarvis.Audit(episode);
    checked += audit.transitions_checked;
    violations += audit.violations;
    benign += audit.benign_anomalies;
    for (const auto& flag : audit.flags) {
      if (flag.verdict != spl::Verdict::kViolation) continue;
      const auto& step =
          episode.steps()[static_cast<std::size_t>(flag.step_index)];
      std::printf("VIOLATION %s %s %s\n", step.time.ToString().c_str(),
                  home.device(flag.mini.device).label().c_str(),
                  home.device(flag.mini.device)
                      .action_name(flag.mini.action)
                      .c_str());
    }
  }
  std::printf("audited %zu episodes: %zu transitions, %zu violations, %zu "
              "benign anomalies\n",
              episodes.size(), checked, violations, benign);
  return violations == 0 ? 0 : 1;
}

int Optimize(const util::Flags& flags) {
  const int day = flags.GetInt("day", 42);
  const std::string focus = flags.GetString("focus", "energy");
  const double f = flags.GetDouble("f", 0.6);

  sim::Testbed testbed = MakeTestbed(42);
  core::Jarvis jarvis(testbed.home_a(), RestoredConfig(flags, 32));
  if (!RestoreCheckpoint(flags, jarvis)) return 1;

  const sim::DayTrace natural = testbed.home_b_data().Day(day);
  const auto plan =
      jarvis.OptimizeDay(natural, rl::RewardWeights::Sweep(focus, f));
  std::printf("day %d, focus %s f=%.2f\n", day, focus.c_str(), f);
  std::printf("  normal : %.2f kWh  $%.2f  %.0f degC-min\n",
              plan.normal_metrics.energy_kwh, plan.normal_metrics.cost_usd,
              plan.normal_metrics.comfort_error_c_min);
  std::printf("  jarvis : %.2f kWh  $%.2f  %.0f degC-min  (%zu violations)\n",
              plan.optimized_metrics.energy_kwh,
              plan.optimized_metrics.cost_usd,
              plan.optimized_metrics.comfort_error_c_min, plan.violations);
  return 0;
}

int Suggest(const util::Flags& flags) {
  const int day = flags.GetInt("day", 42);
  const int minute = flags.GetInt("minute", 8 * 60);

  sim::Testbed testbed = MakeTestbed(42);
  core::Jarvis jarvis(testbed.home_a(), RestoredConfig(flags, 24));
  if (!RestoreCheckpoint(flags, jarvis)) return 1;

  jarvis.OptimizeDay(testbed.home_b_data().Day(day), rl::RewardWeights{});
  sim::ResidentSimulator resident(testbed.home_a(), sim::ThermalConfig{}, 1);
  const auto action = jarvis.SuggestAction(resident.OvernightState(), minute);
  std::printf("suggested action at %02d:%02d: %s\n", minute / 60, minute % 60,
              testbed.home_a()
                  .codec()
                  .ActionToString(testbed.home_a().devices(), action)
                  .c_str());
  return 0;
}

int FleetRun(const util::Flags& flags) {
  runtime::FleetConfig config;
  config.tenants = static_cast<std::size_t>(flags.GetInt("fleet", 8));
  config.jobs = static_cast<std::size_t>(flags.GetInt("jobs", 1));
  config.fleet_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  config.tenant_config.trainer.episodes = flags.GetInt("episodes", 24);

  runtime::SimulatedWorkloadOptions workload;
  workload.learning_days = flags.GetInt("days", 3);

  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  runtime::Fleet fleet(home, config);

  const runtime::FleetReport report =
      fleet.Run(runtime::SimulatedWorkloadFactory(home, workload));

  for (const auto& tenant : report.tenants) {
    if (tenant.quarantined) {
      std::printf("tenant %2zu  QUARANTINED: %s\n", tenant.tenant,
                  tenant.error.c_str());
      continue;
    }
    std::printf(
        "tenant %2zu  %zu episodes  %.2f kWh  $%.2f  %.0f degC-min  "
        "(%zu violations)%s\n",
        tenant.tenant, tenant.learning_episodes,
        tenant.plan.optimized_metrics.energy_kwh,
        tenant.plan.optimized_metrics.cost_usd,
        tenant.plan.optimized_metrics.comfort_error_c_min,
        tenant.plan.violations,
        tenant.degraded ? "  [degraded]" : "");
  }
  std::printf(
      "fleet: %zu tenants, jobs=%zu: %zu completed, %zu quarantined, "
      "%zu degraded; total %.2f kWh  $%.2f  %zu violations\n",
      report.tenants.size(), config.jobs, report.completed,
      report.quarantined, report.degraded, report.total_energy_kwh,
      report.total_cost_usd, report.total_violations);
  return report.quarantined == 0 ? 0 : 1;
}

int Metrics(const util::Flags& flags) {
  runtime::FleetConfig config;
  config.tenants = static_cast<std::size_t>(flags.GetInt("fleet", 2));
  config.jobs = static_cast<std::size_t>(flags.GetInt("jobs", 1));
  config.fleet_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  config.tenant_config.trainer.episodes = flags.GetInt("episodes", 4);
  config.tenant_config.restarts = 1;

  runtime::SimulatedWorkloadOptions workload;
  workload.learning_days = flags.GetInt("days", 2);
  workload.benign_anomaly_samples = 500;

  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  runtime::Fleet fleet(home, config);
  fleet.Run(runtime::SimulatedWorkloadFactory(home, workload));

  util::JsonObject document;
  document["fleet"] = fleet.TakeMetricsSnapshot().ToJson();
  document["tenants"] = fleet.AggregateTenantMetrics().ToJson();
  std::string output = util::JsonValue(std::move(document)).Dump(2);
  output.push_back('\n');

  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fputs(output.c_str(), stdout);
  } else {
    util::io::AtomicWriteFile(out, output);
    std::printf("metrics -> %s\n", out.c_str());
  }
  return 0;
}

// Encoded bytes of log lines one `client ingest` request carries: half
// the frame cap, so a log of any size goes over as consecutive requests
// that each fit one frame.
constexpr std::size_t kIngestBatchBytes = serve::kMaxFramePayloadBytes / 2;

// The --log file as consecutive ingest requests for --tenant (at least
// one, so an empty log still gets the daemon's answer).
std::vector<std::string> IngestRequests(const util::Flags& flags) {
  std::vector<util::JsonArray> batches(1);
  std::size_t batch_bytes = 0;
  std::stringstream log(
      util::io::ReadFile(flags.GetString("log", "events.log")));
  std::string line;
  while (std::getline(log, line)) {
    if (line.empty()) continue;
    util::JsonValue value(line);
    const std::size_t bytes = value.Dump().size() + 1;  // + the comma
    if (batch_bytes + bytes > kIngestBatchBytes && !batches.back().empty()) {
      batches.emplace_back();
      batch_bytes = 0;
    }
    batches.back().push_back(std::move(value));
    batch_bytes += bytes;
  }
  std::vector<std::string> requests;
  for (util::JsonArray& lines : batches) {
    util::JsonObject request;
    request["id"] = static_cast<std::int64_t>(requests.size() + 1);
    request["type"] = "ingest";
    request["tenant"] = flags.GetInt("tenant", 0);
    request["lines"] = util::JsonValue(std::move(lines));
    requests.push_back(util::JsonValue(std::move(request)).Dump());
  }
  return requests;
}

}  // namespace

// Thin daemon client: one framed round trip per request over one
// connection, the raw JSON response on stdout. An ingest whose log needs
// several requests stops at the first error response (printed as is) and
// otherwise prints one response-shaped object with the summed counts. The
// serve smoke job in CI scripts this end to end.
int Client(const util::Flags& flags) {
  if (flags.positional().size() < 2) return Usage();
  const std::string action = flags.positional()[1];

  std::vector<std::string> requests;
  if (action == "ingest") {
    requests = IngestRequests(flags);
  } else {
    util::JsonObject request;
    request["id"] = 1;
    if (action == "ping" || action == "health" || action == "metrics" ||
        action == "shutdown" || action == "checkpoint") {
      request["type"] = action;
    } else if (action == "suggest") {
      request["type"] = "suggest_action";
      request["tenant"] = flags.GetInt("tenant", 0);
      request["minute"] = flags.GetInt("minute", 480);
    } else if (action == "minutes") {
      request["type"] = "suggest_minutes";
      request["tenant"] = flags.GetInt("tenant", 0);
      util::JsonArray minutes;
      std::stringstream list(flags.GetString("minutes", "480"));
      std::string item;
      while (std::getline(list, item, ',')) {
        if (!item.empty()) minutes.emplace_back(std::stoi(item));
      }
      request["minutes"] = util::JsonValue(std::move(minutes));
    } else {
      return Usage();
    }
    requests.push_back(util::JsonValue(std::move(request)).Dump());
  }

  int port = flags.GetInt("port", 0);
  const std::string port_file = flags.GetString("port-file", "");
  if (port == 0 && !port_file.empty()) {
    port = std::stoi(util::io::ReadFile(port_file));
  }
  if (port == 0) {
    std::fprintf(stderr, "client: need --port or --port-file\n");
    return 2;
  }
  std::string error;
  auto transport = serve::ConnectTcp(flags.GetString("host", "127.0.0.1"),
                                     static_cast<std::uint16_t>(port),
                                     &error);
  if (transport == nullptr) {
    std::fprintf(stderr, "client: connect failed: %s\n", error.c_str());
    return 1;
  }
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::string payload;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!transport->WritePayload(requests[i])) {
      std::fprintf(stderr, "client: write failed\n");
      return 1;
    }
    if (transport->ReadPayload(&payload) !=
        serve::FramedTransport::ReadResult::kPayload) {
      std::fprintf(stderr, "client: no response (%s)\n", payload.c_str());
      return 1;
    }
    const util::JsonValue response = util::JsonValue::Parse(payload);
    if (!serve::ResponseOk(response)) {
      if (requests.size() > 1) {
        std::fprintf(stderr, "client: request %zu of %zu failed\n", i + 1,
                     requests.size());
      }
      std::printf("%s\n", payload.c_str());
      return 1;
    }
    if (action == "ingest") {
      accepted += response.At("accepted").AsInt();
      rejected += response.At("rejected").AsInt();
    }
  }
  if (action == "ingest") {
    util::JsonObject total;
    total["accepted"] = accepted;
    total["rejected"] = rejected;
    payload = serve::MakeOkResponse(
        static_cast<std::int64_t>(requests.size()), std::move(total));
  }
  std::printf("%s\n", payload.c_str());
  return 0;
}

int main(int argc, char** argv) {
  try {
    const util::Flags flags(argc, argv);
    if (flags.positional().empty()) return Usage();
    const std::string command = flags.positional()[0];
    if (command == "simulate") return Simulate(flags);
    if (command == "learn") return Learn(flags);
    if (command == "audit") return Audit(flags);
    if (command == "optimize") return Optimize(flags);
    if (command == "suggest") return Suggest(flags);
    if (command == "fleet") return FleetRun(flags);
    if (command == "metrics") return Metrics(flags);
    if (command == "client") return Client(flags);
    return Usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
