// Server admission + drain over a loopback transport: hostile bytes get
// one error response each and never kill serving, overload rejections are
// deterministic and explicit, and a drain under load answers every single
// request — accepted ones with results, refused ones with overloaded /
// draining — losing none. Carries the `runtime` label so TSan races the
// worker pool, the loopback queues, and the per-tenant suggestion locks.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fsm/device_library.h"
#include "runtime/fleet.h"
#include "scratch_dir.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "sim/resident.h"
#include "util/io.h"
#include "util/json.h"

namespace jarvis::serve {
namespace {

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

// One trained single-tenant fleet shared by the suite (read-only here).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    home_ = new fsm::EnvironmentFsm(fsm::BuildFullHome());
    fleet_ = new runtime::Fleet(*home_, TinyFleetConfig());
    runtime::SimulatedWorkloadOptions workload;
    workload.learning_days = 1;
    workload.benign_anomaly_samples = 100;
    fleet_->Run(runtime::SimulatedWorkloadFactory(*home_, workload));
  }
  static void TearDownTestSuite() {
    delete fleet_;
    delete home_;
    fleet_ = nullptr;
    home_ = nullptr;
  }

  static std::string PingRequest(int id) {
    return "{\"id\": " + std::to_string(id) + ", \"type\": \"ping\"}";
  }

  // Reads frames from `transport` until EOF; returns parsed payloads.
  static std::vector<util::JsonValue> ReadAll(FramedTransport& transport) {
    std::vector<util::JsonValue> responses;
    std::string payload;
    for (;;) {
      const auto result = transport.ReadPayload(&payload);
      if (result == FramedTransport::ReadResult::kClosed) break;
      if (result == FramedTransport::ReadResult::kPayload) {
        responses.push_back(util::JsonValue::Parse(payload));
      }
    }
    return responses;
  }

  static fsm::EnvironmentFsm* home_;
  static runtime::Fleet* fleet_;
};

fsm::EnvironmentFsm* ServerTest::home_ = nullptr;
runtime::Fleet* ServerTest::fleet_ = nullptr;

TEST_F(ServerTest, HostileBytesGetErrorResponsesThenServingContinues) {
  DispatcherOptions options;
  Dispatcher dispatcher(*fleet_, options, nullptr);
  obs::Registry registry;
  Server server(dispatcher, ServerConfig{}, &registry);

  LoopbackPair pair = MakeLoopbackPair();
  ConnectionStats stats;
  std::thread serving(
      [&] { stats = server.Serve(*pair.server); });

  // Byte-level hostility: garbage, an oversized length prefix, a frame
  // with a corrupted payload — then a perfectly good ping.
  pair.client->WriteRawBytes("totally not a frame");
  std::string corrupt = EncodeFrame("payload");
  corrupt[corrupt.size() - 1] ^= 0x40;
  pair.client->WriteRawBytes(corrupt);
  pair.client->WritePayload(PingRequest(7));
  // Frame-level hostility: valid frames whose payloads are not requests.
  pair.client->WritePayload("}{ not json");
  pair.client->WritePayload(R"({"id": 8, "type": "no_such_type"})");
  pair.client->WritePayload(PingRequest(9));
  pair.client->CloseWrite();
  serving.join();
  pair.server->CloseWrite();

  const std::vector<util::JsonValue> responses = ReadAll(*pair.client);
  // Exactly one response per input: 2 malformed episodes (the garbage run
  // and the corrupt frame), 2 bad requests, 2 pings.
  ASSERT_EQ(responses.size(), 6u);
  std::size_t malformed = 0, bad = 0, ok = 0;
  for (const auto& response : responses) {
    if (ResponseOk(response)) {
      ++ok;
      continue;
    }
    const std::string& code = response.At("error").AsString();
    if (code == kErrMalformedFrame) ++malformed;
    if (code == kErrBadRequest) ++bad;
  }
  EXPECT_EQ(malformed, 2u);
  EXPECT_EQ(bad, 2u);
  EXPECT_EQ(ok, 2u);
  // Stats and registry counters agree with the ground truth.
  EXPECT_EQ(stats.malformed_frames, 2u);
  EXPECT_EQ(stats.bad_requests, 2u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_EQ(registry.GetCounter("serve.malformed_frames")->Value(), 2u);
  EXPECT_EQ(registry.GetCounter("serve.bad_requests")->Value(), 2u);
  EXPECT_EQ(registry.GetCounter("serve.accepted")->Value(), 2u);
}

// Framed payloads that are not requests: each must decode to a parse
// failure (never an exception) and get one bad_request answer.
std::vector<std::string> HostilePayloads() {
  return {
      "",                                    // empty
      "not json at all {{{",                 // garbage
      "[1,2,3]",                             // not an object
      R"({"id": 1})",                        // no type
      R"({"id": 99, "type": "frobnicate"})", // unknown type
      R"({"id": "x", "type": "ping"})",      // non-numeric id
      R"({"id": 2, "type": 42})",            // non-string type
      std::string(300, '\xff'),              // binary noise
      std::string(100000, '['),              // 100,000-deep nesting
  };
}

TEST(ParseRequest, HostilePayloadsAreParseFailuresNeverThrows) {
  for (const std::string& payload : HostilePayloads()) {
    std::string error;
    std::int64_t id = -1;
    EXPECT_FALSE(ParseRequest(payload, &error, &id).has_value()) << payload;
    EXPECT_FALSE(error.empty()) << payload;
    EXPECT_NE(id, -1) << payload;  // always reported, 0 when none was read
  }
}

TEST_F(ServerTest, HostilePayloadsGetOneBadRequestEachThenServingContinues) {
  DispatcherOptions options;
  Dispatcher dispatcher(*fleet_, options, nullptr);
  obs::Registry registry;
  Server server(dispatcher, ServerConfig{}, &registry);

  LoopbackPair pair = MakeLoopbackPair();
  const std::vector<std::string> hostile = HostilePayloads();
  for (const std::string& payload : hostile) {
    pair.client->WritePayload(payload);
  }
  pair.client->WritePayload(PingRequest(3));
  pair.client->CloseWrite();
  const ConnectionStats stats = server.Serve(*pair.server);
  pair.server->CloseWrite();

  // A refused request echoes the id its one parse read before the failing
  // field, so the unknown type's 99 correlates; a non-numeric id, or no
  // object at all, answers as 0.
  const std::map<std::string, std::int64_t> echoed_ids = {
      {R"({"id": 1})", 1},
      {R"({"id": 99, "type": "frobnicate"})", 99},
      {R"({"id": 2, "type": 42})", 2},
  };
  // Responses come back in order: one bad_request per hostile payload,
  // then the ping.
  const std::vector<util::JsonValue> responses = ReadAll(*pair.client);
  ASSERT_EQ(responses.size(), hostile.size() + 1);
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_FALSE(ResponseOk(responses[i])) << hostile[i];
    EXPECT_EQ(responses[i].At("error").AsString(), kErrBadRequest)
        << hostile[i];
    const auto echoed = echoed_ids.find(hostile[i]);
    EXPECT_EQ(responses[i].At("id").AsInt(),
              echoed == echoed_ids.end() ? 0 : echoed->second)
        << hostile[i];
  }
  EXPECT_TRUE(ResponseOk(responses.back()));
  EXPECT_EQ(responses.back().At("id").AsInt(), 3);  // still serving
  EXPECT_EQ(stats.bad_requests, hostile.size());
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(registry.GetCounter("serve.bad_requests")->Value(),
            hostile.size());
  EXPECT_FALSE(registry.TakeSnapshot().HasCounter("serve.bad_request"));
}

TEST_F(ServerTest, MidStreamDisconnectThenANewConnectionServes) {
  DispatcherOptions options;
  Dispatcher dispatcher(*fleet_, options, nullptr);
  Server server(dispatcher, ServerConfig{}, nullptr);

  {
    // The client dies mid-frame: a partial header, then EOF.
    LoopbackPair pair = MakeLoopbackPair();
    pair.client->WriteRawBytes(EncodeFrame("half a frame").substr(0, 7));
    pair.client->CloseWrite();
    const ConnectionStats stats = server.Serve(*pair.server);
    EXPECT_EQ(stats.accepted, 0u);
    EXPECT_TRUE(pair.server->truncated_tail());
  }
  {
    // The daemon must shrug and serve the next connection.
    LoopbackPair pair = MakeLoopbackPair();
    pair.client->WritePayload(PingRequest(1));
    pair.client->CloseWrite();
    const ConnectionStats stats = server.Serve(*pair.server);
    EXPECT_EQ(stats.accepted, 1u);
    pair.server->CloseWrite();
    const auto responses = ReadAll(*pair.client);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_TRUE(ResponseOk(responses[0]));
  }
}

TEST_F(ServerTest, OverloadRejectionsAreDeterministicAndExplicit) {
  DispatcherOptions options;
  options.allow_stall = true;
  Dispatcher dispatcher(*fleet_, options, nullptr);
  ServerConfig config;
  config.workers = 1;       // the stall parks the only worker
  config.queue_capacity = 2;
  obs::Registry registry;
  Server server(dispatcher, config, &registry);

  LoopbackPair pair = MakeLoopbackPair();
  ConnectionStats stats;
  std::thread serving([&] { stats = server.Serve(*pair.server); });

  pair.client->WritePayload(R"({"id": 1, "type": "stall"})");
  // Deterministic overload: wait until the worker has DEQUEUED the stall
  // (parked inside the handler), so the queue is empty and exactly
  // queue_capacity of the following pings are admitted.
  while (dispatcher.stalled_now() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int id = 2; id <= 6; ++id) {
    pair.client->WritePayload(PingRequest(id));
  }
  pair.client->CloseWrite();
  // The serve loop admits/rejects asynchronously: releasing the stall
  // while pings are still being submitted would free the worker to drain
  // the queue mid-burst and admit an extra one. Wait for the third
  // explicit rejection (the live registry counter) before releasing.
  while (registry.GetCounter("serve.rejected_overload")->Value() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  dispatcher.ReleaseStalls();
  serving.join();
  pair.server->CloseWrite();

  // stall + 2 queued pings admitted; pings 3..5 rejected explicitly.
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected_overload, 3u);
  EXPECT_EQ(registry.GetCounter("serve.rejected_overload")->Value(), 3u);

  const auto responses = ReadAll(*pair.client);
  ASSERT_EQ(responses.size(), 6u);
  std::map<std::int64_t, std::string> outcome;
  for (const auto& response : responses) {
    outcome[response.At("id").AsInt()] =
        ResponseOk(response) ? "ok" : response.At("error").AsString();
  }
  ASSERT_EQ(outcome.size(), 6u) << "every id answered exactly once";
  EXPECT_EQ(outcome.at(1), "ok");  // the released stall
  std::size_t ok = 0, overloaded = 0;
  for (int id = 2; id <= 6; ++id) {
    if (outcome.at(id) == "ok") ++ok;
    if (outcome.at(id) == kErrOverloaded) ++overloaded;
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(overloaded, 3u);
}

TEST_F(ServerTest, ShutdownRequestStartsDrainAndLaterRequestsAreRefused) {
  DispatcherOptions options;
  Dispatcher dispatcher(*fleet_, options, nullptr);
  Server server(dispatcher, ServerConfig{}, nullptr);

  LoopbackPair pair = MakeLoopbackPair();
  ConnectionStats stats;
  std::thread serving([&] { stats = server.Serve(*pair.server); });

  pair.client->WritePayload(R"({"id": 1, "type": "shutdown"})");
  // Reading the shutdown response guarantees the drain flag is set (the
  // handler fires the callback before the response is written).
  std::string payload;
  ASSERT_EQ(pair.client->ReadPayload(&payload),
            FramedTransport::ReadResult::kPayload);
  EXPECT_TRUE(ResponseOk(util::JsonValue::Parse(payload)));
  EXPECT_TRUE(server.draining());

  pair.client->WritePayload(PingRequest(2));
  ASSERT_EQ(pair.client->ReadPayload(&payload),
            FramedTransport::ReadResult::kPayload);
  const auto refused = util::JsonValue::Parse(payload);
  EXPECT_FALSE(ResponseOk(refused));
  EXPECT_EQ(refused.At("error").AsString(), kErrDraining);
  EXPECT_EQ(refused.At("id").AsInt(), 2);

  pair.client->CloseWrite();
  serving.join();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.draining_refused, 1u);
}

TEST_F(ServerTest, DrainUnderLoadAnswersEveryRequestAndFlushes) {
  const testing_util::ScratchDir scratch("serve_server_drain");
  const std::string& dir = scratch.path();

  DispatcherOptions options;
  options.allow_stall = true;
  options.checkpoint_dir = dir;
  Dispatcher dispatcher(*fleet_, options, nullptr);
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 4;
  Server server(dispatcher, config, nullptr);

  LoopbackPair pair = MakeLoopbackPair();
  ConnectionStats stats;
  std::thread serving([&] { stats = server.Serve(*pair.server); });

  // Load phase: a stall pins one worker, then a burst larger than
  // workers + queue guarantees real overload while requests are in flight.
  pair.client->WritePayload(R"({"id": 1, "type": "stall"})");
  while (dispatcher.stalled_now() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int kBurst = 24;
  for (int id = 2; id < 2 + kBurst; ++id) {
    pair.client->WritePayload(PingRequest(id));
  }
  // Drain starts while the stall still holds a worker and pings are still
  // queued — the requests sent after this must be refused, not lost.
  server.RequestDrain();
  const int kLate = 8;
  for (int id = 2 + kBurst; id < 2 + kBurst + kLate; ++id) {
    pair.client->WritePayload(PingRequest(id));
  }
  pair.client->CloseWrite();
  dispatcher.ReleaseStalls();
  serving.join();

  const DrainFlushReport flush = server.Drain();
  pair.server->CloseWrite();
  const auto responses = ReadAll(*pair.client);

  // THE drain pin: one response per request, none lost, each one either a
  // result, an explicit overload, or an explicit draining refusal.
  const std::size_t total = 1 + kBurst + kLate;
  ASSERT_EQ(responses.size(), total);
  std::map<std::int64_t, std::string> outcome;
  std::size_t ok = 0, overloaded = 0, draining = 0;
  for (const auto& response : responses) {
    const std::string verdict =
        ResponseOk(response) ? "ok" : response.At("error").AsString();
    outcome[response.At("id").AsInt()] = verdict;
    if (verdict == "ok") ++ok;
    if (verdict == kErrOverloaded) ++overloaded;
    if (verdict == kErrDraining) ++draining;
  }
  EXPECT_EQ(outcome.size(), total) << "every id answered exactly once";
  EXPECT_EQ(ok + overloaded + draining, total);
  EXPECT_EQ(ok, stats.accepted);
  EXPECT_EQ(overloaded, stats.rejected_overload);
  EXPECT_EQ(draining, stats.draining_refused);
  // Everything sent after RequestDrain was refused as draining.
  EXPECT_GE(draining, static_cast<std::size_t>(kLate));
  // The final flush checkpointed the trained tenant.
  EXPECT_EQ(flush.checkpoints_saved, 1u);
  EXPECT_TRUE(
      util::io::FileExists(runtime::Fleet::TenantCheckpointPath(dir, 0)));
}

// The drain pin with suggestion traffic in the serving path: under
// overload + drain, every request is answered exactly once and every
// accepted suggestion carries the bit-exact action for its minute.
TEST_F(ServerTest, DrainUnderSuggestLoadAnswersExactlyOnce) {
  sim::ResidentSimulator resident(*home_, sim::ThermalConfig{}, 2026);
  const fsm::StateVector overnight = resident.OvernightState();
  std::vector<int> minutes;
  for (int minute = 0; minute < util::kMinutesPerDay; minute += 60) {
    minutes.push_back(minute);
  }
  const std::vector<fsm::ActionVector> expected =
      fleet_->SuggestMinutes(0, overnight, minutes);

  DispatcherOptions options;
  options.allow_stall = true;
  options.default_state = overnight;
  Dispatcher dispatcher(*fleet_, options, nullptr);
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 4;
  Server server(dispatcher, config, nullptr);

  LoopbackPair pair = MakeLoopbackPair();
  ConnectionStats stats;
  std::thread serving([&] { stats = server.Serve(*pair.server); });

  // One stalled worker + a suggestion burst past workers + queue, then a
  // drain racing in-flight suggestions, then late traffic.
  pair.client->WritePayload(R"({"id": 0, "type": "stall"})");
  while (dispatcher.stalled_now() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::size_t i = 0; i < minutes.size(); ++i) {
    pair.client->WritePayload(
        R"({"id": )" + std::to_string(1 + i) +
        R"(, "type": "suggest_action", "tenant": 0, "minute": )" +
        std::to_string(minutes[i]) + "}");
  }
  server.RequestDrain();
  const int kLate = 6;
  for (int i = 0; i < kLate; ++i) {
    pair.client->WritePayload(PingRequest(1000 + i));
  }
  pair.client->CloseWrite();
  dispatcher.ReleaseStalls();
  serving.join();
  server.Drain();
  pair.server->CloseWrite();
  const auto responses = ReadAll(*pair.client);

  // Every request answered exactly once; every accepted suggestion carries
  // the bit-exact direct-route action for its minute.
  const std::size_t total = 1 + minutes.size() + kLate;
  ASSERT_EQ(responses.size(), total);
  std::map<std::int64_t, std::string> outcome;
  std::size_t ok = 0, refused = 0;
  for (const auto& response : responses) {
    const std::int64_t id = response.At("id").AsInt();
    if (ResponseOk(response)) {
      ++ok;
      outcome[id] = "ok";
      if (id >= 1 && id < static_cast<std::int64_t>(1 + minutes.size())) {
        const std::size_t i = static_cast<std::size_t>(id - 1);
        const util::JsonArray& action = response.At("action").AsArray();
        ASSERT_EQ(action.size(), expected[i].size()) << "minute "
                                                     << minutes[i];
        for (std::size_t d = 0; d < action.size(); ++d) {
          EXPECT_EQ(action[d].AsInt(), expected[i][d])
              << "minute " << minutes[i] << " device " << d;
        }
      }
    } else {
      ++refused;
      outcome[id] = response.At("error").AsString();
    }
  }
  EXPECT_EQ(outcome.size(), total) << "every id answered exactly once";
  EXPECT_EQ(ok, stats.accepted);
  EXPECT_EQ(ok + refused, total);
}

}  // namespace
}  // namespace jarvis::serve
