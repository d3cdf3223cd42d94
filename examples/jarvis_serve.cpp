// jarvis_serve: the long-lived serving daemon. Trains a runtime::Fleet
// once at startup (simulated homes, like `jarvis_cli fleet`), then keeps
// it resident and answers requests over the framed wire protocol
// (DESIGN.md §15) until asked to drain. A tenant whose checkpoint in
// --checkpoint-dir restores skips the learning phase (warm start).
//
//   jarvis_serve --port 0 --port-file /tmp/port
//       Listen on an ephemeral loopback TCP port, report it in the port
//       file, serve until a shutdown request (or SIGINT) starts the drain.
//   jarvis_serve --stdio
//       Serve a single framed conversation on stdin/stdout (inetd style);
//       EOF or a shutdown request ends it.
//
// One connection is served at a time, each request answered on the
// thread that read it. Exit is always the graceful path: stop accepting,
// finish the connection in hand (refusing its new requests as draining),
// sync the ingest logs and write checkpoints to --checkpoint-dir, exit 0.
// `jarvis_cli client` is the matching client.
#include <csignal>
#include <cstdio>
#include <string>

#include "runtime/fleet.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "sim/testbed.h"
#include "util/flags.h"
#include "util/io.h"

namespace {

using namespace jarvis;

// Async-signal flag: SIGINT requests a drain; the accept loop polls it.
volatile std::sig_atomic_t g_interrupted = 0;

void OnInterrupt(int) { g_interrupted = 1; }

int Usage() {
  std::printf(
      "usage: jarvis_serve [--stdio | --port P [--port-file FILE]]\n"
      "  --tenants N        homes to train and serve (default 2)\n"
      "  --jobs N           training worker threads (default 2)\n"
      "  --seed S           fleet seed (default 42)\n"
      "  --episodes N       DQN episodes per tenant (default 6)\n"
      "  --days N           simulated learning days (default 2)\n"
      "  --checkpoint-dir D warm-boot source, ingest logs, drain flush\n"
      "  --port P           loopback TCP port, 0 = ephemeral (default 0)\n"
      "  --port-file FILE   write the bound port here once listening\n"
      "  --stdio            serve one conversation on stdin/stdout\n");
  return 2;
}

int Run(const util::Flags& flags) {
  runtime::FleetConfig config;
  config.tenants = static_cast<std::size_t>(flags.GetInt("tenants", 2));
  config.jobs = static_cast<std::size_t>(flags.GetInt("jobs", 2));
  config.fleet_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  config.tenant_config.trainer.episodes = flags.GetInt("episodes", 6);

  runtime::SimulatedWorkloadOptions workload;
  workload.learning_days = flags.GetInt("days", 2);

  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  runtime::Fleet fleet(home, config);

  // A missing or empty directory restores nothing: a cold boot.
  const std::string checkpoint_dir = flags.GetString("checkpoint-dir", "");
  if (!checkpoint_dir.empty()) {
    const runtime::FleetCheckpointReport restored =
        fleet.RestoreCheckpoints(checkpoint_dir);
    for (const runtime::TenantCheckpointResult& tenant : restored.tenants) {
      if (tenant.attempted && !tenant.succeeded) {
        std::fprintf(stderr,
                     "jarvis_serve: tenant %zu checkpoint not restored, "
                     "cold start: %s\n",
                     tenant.tenant, tenant.error.c_str());
      }
    }
  }

  std::fprintf(stderr, "jarvis_serve: training %zu tenants...\n",
               config.tenants);
  const runtime::FleetReport report =
      fleet.Run(runtime::SimulatedWorkloadFactory(home, workload));
  std::fprintf(stderr,
               "jarvis_serve: fleet ready (%zu completed, %zu quarantined, "
               "%zu warm-started)\n",
               report.completed, report.quarantined, report.warm_started);

  sim::ResidentSimulator resident(home, sim::ThermalConfig{},
                                  config.fleet_seed);
  serve::DispatcherOptions dispatch_options;
  dispatch_options.default_state = resident.OvernightState();
  dispatch_options.checkpoint_dir = checkpoint_dir;
  serve::Dispatcher dispatcher(fleet, dispatch_options, &fleet.Metrics());

  serve::Server server(dispatcher, &fleet.Metrics());

  // A client that disconnects mid-response must cost one dropped-response
  // counter, not a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, OnInterrupt);
  std::signal(SIGTERM, OnInterrupt);

  if (flags.GetBool("stdio", false)) {
    serve::FdTransport transport(0, 1, /*owns_fds=*/false);
    server.Serve(transport);
  } else {
    serve::TcpListener listener(
        static_cast<std::uint16_t>(flags.GetInt("port", 0)));
    const std::string port_file = flags.GetString("port-file", "");
    if (!port_file.empty()) {
      util::io::AtomicWriteFile(port_file,
                                std::to_string(listener.port()) + "\n");
    }
    std::fprintf(stderr, "jarvis_serve: listening on 127.0.0.1:%u\n",
                 listener.port());
    // One conversation at a time: Serve returns when the client hangs up,
    // and the 200ms accept timeout keeps the drain/interrupt flags live.
    while (g_interrupted == 0 && !server.draining()) {
      auto transport = listener.Accept(200);
      if (transport != nullptr) server.Serve(*transport);
    }
  }

  server.RequestDrain();
  const serve::DrainFlushReport drained = server.Drain();
  std::fprintf(stderr,
               "jarvis_serve: drained (checkpoints %zu saved / %zu failed)\n",
               drained.checkpoints_saved, drained.checkpoints_failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Flags flags(argc, argv);
    if (flags.Has("help")) return Usage();
    return Run(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
