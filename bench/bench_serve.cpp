// Serving-daemon bench: request latency through the full framed path
// (client transport → server read + decode → dispatcher → response).
// Runs entirely in-process over a loopback transport, so every count is a
// pure function of the configuration: each case paces requests one at a
// time, and every request is answered ok. Those integers are gated
// exactly by tools/check_bench.py against bench/baselines/BENCH_serve.json;
// the latency percentiles are advisory (runners differ). Writes
// BENCH_serve.json next to the human-readable table. Pass --smoke for the
// CI-sized run (the committed baseline is the --smoke shape).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "events/event.h"
#include "fsm/device_library.h"
#include "runtime/fleet.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "sim/resident.h"
#include "util/json.h"
#include "util/timeofday.h"

namespace {

using namespace jarvis;

runtime::FleetConfig TinyFleetConfig() {
  runtime::FleetConfig config;
  config.tenants = 1;
  config.jobs = 1;
  config.fleet_seed = 2026;
  config.tenant_config.restarts = 1;
  config.tenant_config.trainer.episodes = 2;
  config.tenant_config.trainer.demonstration_episodes = 1;
  config.tenant_config.dqn.hidden_units = {8, 8};
  config.tenant_config.dqn.batch_size = 16;
  config.tenant_config.spl.ann.epochs = 2;
  return config;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Percentile(std::vector<double> sorted_us, double fraction) {
  std::sort(sorted_us.begin(), sorted_us.end());
  const auto index = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(fraction *
                               static_cast<double>(sorted_us.size())));
  return sorted_us[index];
}

struct LatencyOutcome {
  std::size_t sent = 0;
  std::size_t ok = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double total_ms = 0;
};

// One paced request→response loop over a fresh loopback connection: every
// request is answered ok, which is what makes `sent`/`ok` deterministic.
template <typename MakePayload>
LatencyOutcome RunLatencyCase(serve::Server& server, int requests,
                              MakePayload make_payload) {
  serve::LoopbackPair pair = serve::MakeLoopbackPair();
  std::thread serving([&server, &pair] { server.Serve(*pair.server); });

  LatencyOutcome outcome;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(requests));
  const auto begin = std::chrono::steady_clock::now();
  std::string payload;
  for (int i = 0; i < requests; ++i) {
    ++outcome.sent;
    const auto start = std::chrono::steady_clock::now();
    pair.client->WritePayload(make_payload(i));
    if (pair.client->ReadPayload(&payload) !=
        serve::FramedTransport::ReadResult::kPayload) {
      break;
    }
    latencies_us.push_back(MsSince(start) * 1000.0);
    if (serve::ResponseOk(util::JsonValue::Parse(payload))) ++outcome.ok;
  }
  outcome.total_ms = MsSince(begin);
  pair.client->CloseWrite();
  serving.join();

  if (!latencies_us.empty()) {
    outcome.p50_us = Percentile(latencies_us, 0.50);
    outcome.p99_us = Percentile(latencies_us, 0.99);
    outcome.p999_us = Percentile(latencies_us, 0.999);
  }
  return outcome;
}

util::JsonValue LatencyCaseJson(const char* name,
                                const LatencyOutcome& outcome) {
  util::JsonObject deterministic;
  deterministic["sent"] = static_cast<std::int64_t>(outcome.sent);
  deterministic["ok"] = static_cast<std::int64_t>(outcome.ok);
  util::JsonObject advisory;
  advisory["p50_us"] = outcome.p50_us;
  advisory["p99_us"] = outcome.p99_us;
  advisory["p999_us"] = outcome.p999_us;
  advisory["total_ms"] = outcome.total_ms;
  util::JsonObject kase;
  kase["name"] = name;
  kase["deterministic"] = util::JsonValue(std::move(deterministic));
  kase["advisory"] = util::JsonValue(std::move(advisory));
  return util::JsonValue(std::move(kase));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int pings = smoke ? 300 : 2000;
  const int suggests = smoke ? 120 : 600;
  const int batches = smoke ? 40 : 200;
  const int ingests = smoke ? 120 : 600;

  bench::PrintHeader(
      "Serving daemon: framed request latency",
      "serving subsystem (DESIGN.md §15); not a paper figure");
  std::printf("mode: %s\n", smoke ? "smoke" : "full");

  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  runtime::Fleet fleet(home, TinyFleetConfig());
  runtime::SimulatedWorkloadOptions workload;
  workload.learning_days = 1;
  workload.benign_anomaly_samples = 100;
  fleet.Run(runtime::SimulatedWorkloadFactory(home, workload));
  sim::ResidentSimulator resident(home, sim::ThermalConfig{}, 2026);

  // Ingest appends to <checkpoint-dir>/ingest-tenant-0.log as the daemon
  // does, so latency_ingest times that append; a fresh directory per run
  // keeps runs from timing a file that grows across them.
  std::string checkpoint_dir =
      (std::filesystem::temp_directory_path() / "bench_serve-XXXXXX")
          .string();
  if (::mkdtemp(checkpoint_dir.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  serve::DispatcherOptions options;
  options.default_state = resident.OvernightState();
  options.checkpoint_dir = checkpoint_dir;
  serve::Dispatcher dispatcher(fleet, options, nullptr);
  serve::Server server(dispatcher, nullptr);

  events::Event event;
  event.date = util::SimTime(480);
  event.device_label = "Hue lamp";
  event.capability = "switch";
  event.attribute = "power";
  event.attribute_value = "on";
  event.command = "on";
  const std::string log_line = event.ToLogLine();

  const LatencyOutcome ping = RunLatencyCase(server, pings, [](int i) {
    return "{\"id\": " + std::to_string(i) + ", \"type\": \"ping\"}";
  });
  const LatencyOutcome suggest =
      RunLatencyCase(server, suggests, [](int i) {
        return "{\"id\": " + std::to_string(i) +
               ", \"type\": \"suggest_action\", \"tenant\": 0, \"minute\": " +
               std::to_string((i * 7) % util::kMinutesPerDay) + "}";
      });
  const int kBatchMinutes = 16;
  const LatencyOutcome batch =
      RunLatencyCase(server, batches, [kBatchMinutes](int i) {
        std::string minutes;
        for (int k = 0; k < kBatchMinutes; ++k) {
          if (!minutes.empty()) minutes += ",";
          minutes += std::to_string((i * kBatchMinutes + k) %
                                    util::kMinutesPerDay);
        }
        return "{\"id\": " + std::to_string(i) +
               ", \"type\": \"suggest_minutes\", \"tenant\": 0, "
               "\"minutes\": [" + minutes + "]}";
      });
  const LatencyOutcome ingest =
      RunLatencyCase(server, ingests, [&log_line](int i) {
        util::JsonArray lines;
        for (int k = 0; k < 4; ++k) lines.emplace_back(log_line);
        util::JsonObject request;
        request["id"] = static_cast<std::int64_t>(i);
        request["type"] = "ingest";
        request["tenant"] = 0;
        request["lines"] = util::JsonValue(std::move(lines));
        return util::JsonValue(std::move(request)).Dump();
      });

  std::printf("%-22s %8s %8s %10s %10s %10s\n", "case", "sent", "ok",
              "p50 us", "p99 us", "p99.9 us");
  const auto row = [](const char* name, const LatencyOutcome& outcome) {
    std::printf("%-22s %8zu %8zu %10.1f %10.1f %10.1f\n", name,
                outcome.sent, outcome.ok, outcome.p50_us, outcome.p99_us,
                outcome.p999_us);
  };
  row("ping", ping);
  row("suggest_action", suggest);
  row("suggest_minutes_x16", batch);
  row("ingest_x4", ingest);

  util::JsonArray cases;
  cases.push_back(LatencyCaseJson("latency_ping", ping));
  cases.push_back(LatencyCaseJson("latency_suggest_action", suggest));
  cases.push_back(LatencyCaseJson("latency_suggest_minutes", batch));
  cases.push_back(LatencyCaseJson("latency_ingest", ingest));
  util::JsonObject doc;
  doc["bench"] = "serve";
  doc["smoke"] = smoke;
  doc["cases"] = util::JsonValue(std::move(cases));
  std::ofstream out("BENCH_serve.json");
  out << util::JsonValue(std::move(doc)).Dump(2) << "\n";
  std::printf("wrote BENCH_serve.json\n");
  std::filesystem::remove_all(checkpoint_dir);

  // Every paced request answered ok.
  const bool healthy = ping.ok == ping.sent && suggest.ok == suggest.sent &&
                       batch.ok == batch.sent && ingest.ok == ingest.sent;
  return healthy ? 0 : 1;
}
