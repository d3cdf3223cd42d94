// Server over a loopback transport: hostile bytes get one error response
// each and never kill serving, one connection's responses come back in
// request order — through a shutdown, after which every request is
// refused as draining — and connections served on several threads at
// once answer exactly. Carries the `runtime` label so TSan races the
// serving threads, the loopback queues, and the per-tenant suggestion
// locks.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fsm/device_library.h"
#include "runtime/fleet.h"
#include "scratch_dir.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "sim/resident.h"
#include "util/io.h"
#include "util/json.h"
#include "util/timeofday.h"

namespace jarvis::serve {
namespace {

runtime::FleetConfig TinyFleetConfig() {
  runtime::FleetConfig config;
  config.tenants = 2;
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

// One trained two-tenant fleet shared by the suite (read-only here).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    home_ = new fsm::EnvironmentFsm(fsm::BuildFullHome());
    fleet_ = new runtime::Fleet(*home_, TinyFleetConfig());
    runtime::SimulatedWorkloadOptions workload;
    workload.learning_days = 1;
    workload.benign_anomaly_samples = 100;
    fleet_->Run(runtime::SimulatedWorkloadFactory(*home_, workload));
    sim::ResidentSimulator resident(*home_, sim::ThermalConfig{}, 2026);
    overnight_ = new fsm::StateVector(resident.OvernightState());
  }
  static void TearDownTestSuite() {
    delete overnight_;
    delete fleet_;
    delete home_;
    overnight_ = nullptr;
    fleet_ = nullptr;
    home_ = nullptr;
  }

  static DispatcherOptions DefaultOptions() {
    DispatcherOptions options;
    options.default_state = *overnight_;
    return options;
  }

  static std::string SuggestRequest(std::int64_t id, int tenant, int minute) {
    return "{\"id\": " + std::to_string(id) +
           ", \"type\": \"suggest_action\", \"tenant\": " +
           std::to_string(tenant) + ", \"minute\": " + std::to_string(minute) +
           "}";
  }

  // Expects `response` to be the ok suggest_action answer `expected`.
  static void ExpectAction(const util::JsonValue& response,
                           const fsm::ActionVector& expected) {
    ASSERT_TRUE(ResponseOk(response));
    const util::JsonArray& action = response.At("action").AsArray();
    ASSERT_EQ(action.size(), expected.size());
    for (std::size_t d = 0; d < action.size(); ++d) {
      EXPECT_EQ(action[d].AsInt(), expected[d]) << "device " << d;
    }
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
  static fsm::StateVector* overnight_;
};

fsm::EnvironmentFsm* ServerTest::home_ = nullptr;
runtime::Fleet* ServerTest::fleet_ = nullptr;
fsm::StateVector* ServerTest::overnight_ = nullptr;

TEST_F(ServerTest, HostileBytesGetErrorResponsesThenServingContinues) {
  DispatcherOptions options;
  Dispatcher dispatcher(*fleet_, options, nullptr);
  obs::Registry registry;
  Server server(dispatcher, &registry);

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
      R"({"id": 1.5, "type": "ping"})",      // ids that would echo as
      R"({"id": -2.5, "type": "ping"})",     // another request's id
      R"({"id": 1e300, "type": "ping"})",
      R"({"id": 9007199254740994, "type": "ping"})",
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

TEST(ParseRequest, WholeIdsWithin2To53AreKeptExactly) {
  for (const std::int64_t id :
       {std::int64_t{0}, std::int64_t{-7}, std::int64_t{9007199254740992},
        std::int64_t{-9007199254740992}}) {
    std::string error;
    const std::optional<Request> request = ParseRequest(
        R"({"id": )" + std::to_string(id) + R"(, "type": "ping"})", &error,
        nullptr);
    ASSERT_TRUE(request.has_value()) << id << ": " << error;
    EXPECT_EQ(request->id, id);
  }
}

TEST_F(ServerTest, HostilePayloadsGetOneBadRequestEachThenServingContinues) {
  DispatcherOptions options;
  Dispatcher dispatcher(*fleet_, options, nullptr);
  obs::Registry registry;
  Server server(dispatcher, &registry);

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
  // field, so the unknown type's 99 correlates; an id that is not a whole
  // number within 2^53, or no object at all, answers as 0.
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
  Server server(dispatcher, nullptr);

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

TEST_F(ServerTest, ShutdownRequestStartsDrainAndLaterRequestsAreRefused) {
  DispatcherOptions options;
  Dispatcher dispatcher(*fleet_, options, nullptr);
  Server server(dispatcher, nullptr);

  LoopbackPair pair = MakeLoopbackPair();
  ConnectionStats stats;
  std::thread serving([&] { stats = server.Serve(*pair.server); });

  pair.client->WritePayload(R"({"id": 1, "type": "shutdown"})");
  // Reading the shutdown response guarantees the drain flag is set (the
  // handler sets it before the response is written).
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

// One connection pipelines its requests: the serve loop answers each one
// before it reads the next, so the answers come back in request order,
// and the shutdown's drain flag is set before the requests behind it are
// read. Every id gets exactly one outcome and the drain flush checkpoints.
TEST_F(ServerTest, PipelinedRequestsThroughAShutdownAnswerInOrder) {
  const testing_util::ScratchDir scratch("serve_server_drain");
  const std::string& dir = scratch.path();
  DispatcherOptions options = DefaultOptions();
  options.checkpoint_dir = dir;
  Dispatcher dispatcher(*fleet_, options, nullptr);
  Server server(dispatcher, nullptr);

  constexpr int kSuggests = 16;
  constexpr int kLate = 8;
  std::vector<int> minutes;
  for (int i = 0; i < kSuggests; ++i) minutes.push_back(i * 90);
  const std::vector<fsm::ActionVector> expected =
      fleet_->SuggestMinutes(0, *overnight_, minutes);

  LoopbackPair pair = MakeLoopbackPair();
  for (int i = 0; i < kSuggests; ++i) {
    pair.client->WritePayload(SuggestRequest(1 + i, 0, minutes[i]));
  }
  pair.client->WritePayload(
      "{\"id\": " + std::to_string(kSuggests + 1) + ", \"type\": \"shutdown\"}");
  for (int i = 0; i < kLate; ++i) {
    pair.client->WritePayload(PingRequest(kSuggests + 2 + i));
  }
  pair.client->CloseWrite();
  const ConnectionStats stats = server.Serve(*pair.server);
  const DrainFlushReport flush = server.Drain();
  pair.server->CloseWrite();

  const std::vector<util::JsonValue> responses = ReadAll(*pair.client);
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kSuggests + 1 + kLate));
  for (int i = 0; i < kSuggests; ++i) {
    SCOPED_TRACE(::testing::Message() << "minute " << minutes[i]);
    EXPECT_EQ(responses[i].At("id").AsInt(), 1 + i);
    ExpectAction(responses[i], expected[i]);
  }
  const util::JsonValue& shutdown = responses[kSuggests];
  EXPECT_EQ(shutdown.At("id").AsInt(), kSuggests + 1);
  EXPECT_TRUE(ResponseOk(shutdown));
  EXPECT_TRUE(shutdown.At("draining").AsBool());
  for (int i = 0; i < kLate; ++i) {
    const util::JsonValue& late = responses[kSuggests + 1 + i];
    EXPECT_EQ(late.At("id").AsInt(), kSuggests + 2 + i);
    EXPECT_FALSE(ResponseOk(late));
    EXPECT_EQ(late.At("error").AsString(), kErrDraining);
  }
  EXPECT_EQ(stats.accepted, static_cast<std::size_t>(kSuggests + 1));
  EXPECT_EQ(stats.draining_refused, static_cast<std::size_t>(kLate));
  EXPECT_TRUE(server.draining());
  // The drain flush checkpointed both trained tenants.
  EXPECT_EQ(flush.checkpoints_saved, 2u);
  EXPECT_TRUE(
      util::io::FileExists(runtime::Fleet::TenantCheckpointPath(dir, 0)));
}

// Serving concurrency is one thread per connection: two connections, each
// asking for its own tenant's day, served at once by one Server. Every
// answer equals the direct Fleet::SuggestMinutes one.
TEST_F(ServerTest, TwoConnectionsOnTwoThreadsAnswerExactly) {
  Dispatcher dispatcher(*fleet_, DefaultOptions(), nullptr);
  obs::Registry registry;
  Server server(dispatcher, &registry);
  std::vector<int> minutes;
  for (int minute = 0; minute < util::kMinutesPerDay; minute += 15) {
    minutes.push_back(minute);
  }

  constexpr int kTenants = 2;
  std::vector<LoopbackPair> pairs;
  std::vector<std::thread> serving;
  for (int t = 0; t < kTenants; ++t) pairs.push_back(MakeLoopbackPair());
  for (int t = 0; t < kTenants; ++t) {
    serving.emplace_back([&server, &pairs, t] {
      server.Serve(*pairs[t].server);
      pairs[t].server->CloseWrite();
    });
  }
  std::vector<std::thread> clients;
  for (int t = 0; t < kTenants; ++t) {
    clients.emplace_back([&pairs, &minutes, t] {
      for (std::size_t i = 0; i < minutes.size(); ++i) {
        pairs[t].client->WritePayload(
            SuggestRequest(static_cast<std::int64_t>(i), t, minutes[i]));
      }
      pairs[t].client->CloseWrite();
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (std::thread& thread : serving) thread.join();

  for (int t = 0; t < kTenants; ++t) {
    SCOPED_TRACE(::testing::Message() << "tenant " << t);
    const std::vector<fsm::ActionVector> expected =
        fleet_->SuggestMinutes(t, *overnight_, minutes);
    const std::vector<util::JsonValue> responses = ReadAll(*pairs[t].client);
    ASSERT_EQ(responses.size(), minutes.size());
    for (std::size_t i = 0; i < minutes.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "minute " << minutes[i]);
      EXPECT_EQ(responses[i].At("id").AsInt(), static_cast<std::int64_t>(i));
      ExpectAction(responses[i], expected[i]);
    }
  }
  EXPECT_EQ(registry.GetCounter("serve.accepted")->Value(),
            kTenants * minutes.size());
}

// A request whose answer would not fit one frame gets one bad_request,
// not silence, and the connection serves the next request.
TEST_F(ServerTest, ResponseOverTheFrameCapIsAnsweredThenServingContinues) {
  Dispatcher dispatcher(*fleet_, DefaultOptions(), nullptr);
  obs::Registry registry;
  Server server(dispatcher, &registry);

  std::string minutes;
  for (int i = 0; i < 30000; ++i) {
    if (i > 0) minutes += ",";
    minutes += std::to_string(i % util::kMinutesPerDay);
  }
  LoopbackPair pair = MakeLoopbackPair();
  pair.client->WritePayload(
      R"({"id": 5, "type": "suggest_minutes", "tenant": 0, "minutes": [)" +
      minutes + "]}");
  pair.client->WritePayload(PingRequest(6));
  pair.client->CloseWrite();
  server.Serve(*pair.server);
  pair.server->CloseWrite();

  const std::vector<util::JsonValue> responses = ReadAll(*pair.client);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].At("id").AsInt(), 5);
  EXPECT_EQ(responses[0].At("error").AsString(), kErrBadRequest);
  EXPECT_NE(responses[0].At("detail").AsString().find(
                std::to_string(kMaxFramePayloadBytes)),
            std::string::npos);
  EXPECT_TRUE(ResponseOk(responses[1]));
  EXPECT_EQ(responses[1].At("id").AsInt(), 6);
  EXPECT_EQ(registry.GetCounter("serve.responses_dropped")->Value(), 0u);
}

// A request type as long as the frame allows is refused with a bounded
// echo of the name: the refusal itself must still fit a frame.
TEST_F(ServerTest, FrameSizedUnknownTypeIsRefusedThenServingContinues) {
  Dispatcher dispatcher(*fleet_, DefaultOptions(), nullptr);
  Server server(dispatcher, nullptr);
  const std::string prefix = R"({"id": 4, "type": ")";
  const std::string name(kMaxFramePayloadBytes - prefix.size() - 2, 'x');

  LoopbackPair pair = MakeLoopbackPair();
  pair.client->WritePayload(prefix + name + "\"}");
  pair.client->WritePayload(PingRequest(5));
  pair.client->CloseWrite();
  const ConnectionStats stats = server.Serve(*pair.server);
  pair.server->CloseWrite();

  const std::vector<util::JsonValue> responses = ReadAll(*pair.client);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].At("id").AsInt(), 4);
  EXPECT_EQ(responses[0].At("error").AsString(), kErrBadRequest);
  EXPECT_LT(responses[0].At("detail").AsString().size(), 128u);
  EXPECT_TRUE(ResponseOk(responses[1]));
  EXPECT_EQ(stats.bad_requests, 1u);
}

}  // namespace
}  // namespace jarvis::serve
