// Dispatcher handlers against an in-memory Fleet — no sockets anywhere,
// which is the point of the transport/handler split. Includes the
// end-to-end parity pin: a day of suggest_action requests through the
// dispatcher is bit-identical to calling Fleet::SuggestMinutes directly,
// and the ingest log's contract: every accepted event appended before the
// response, batches unbroken, a torn line costing only itself.
#include "serve/dispatcher.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "events/event.h"
#include "events/logger_app.h"
#include "fsm/device_library.h"
#include "runtime/fleet.h"
#include "scratch_dir.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "sim/resident.h"
#include "util/io.h"
#include "util/json.h"
#include "util/timeofday.h"

namespace jarvis::serve {
namespace {

runtime::FleetConfig TinyFleetConfig(std::size_t tenants) {
  runtime::FleetConfig config;
  config.tenants = tenants;
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

runtime::SimulatedWorkloadOptions TinyWorkload() {
  runtime::SimulatedWorkloadOptions options;
  options.learning_days = 1;
  options.benign_anomaly_samples = 100;
  return options;
}

// One trained two-tenant fleet shared by the whole suite: training is the
// expensive part and every test here only reads from it.
class DispatcherTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    home_ = new fsm::EnvironmentFsm(fsm::BuildFullHome());
    fleet_ = new runtime::Fleet(*home_, TinyFleetConfig(2));
    fleet_->Run(runtime::SimulatedWorkloadFactory(*home_, TinyWorkload()));
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

  // Options of a daemon whose checkpoint dir (and so ingest logs) is `dir`.
  static DispatcherOptions LogOptions(const std::string& dir) {
    DispatcherOptions options = DefaultOptions();
    options.checkpoint_dir = dir;
    return options;
  }

  static std::string IngestLogPath(const std::string& dir,
                                   std::size_t tenant) {
    return dir + "/ingest-tenant-" + std::to_string(tenant) + ".log";
  }

  // A log line of one event at `minute` on device `label`.
  static std::string MinuteLine(int minute, const std::string& label) {
    events::Event event;
    event.date = util::SimTime(minute);
    event.device_label = label;
    return event.ToLogLine();
  }

  static std::string IngestPayload(int tenant, util::JsonArray lines) {
    util::JsonObject request;
    request["id"] = 1;
    request["type"] = "ingest";
    request["tenant"] = tenant;
    request["lines"] = util::JsonValue(std::move(lines));
    return util::JsonValue(std::move(request)).Dump();
  }

  // Decodes `payload` the way the Server does, then dispatches it. Every
  // payload here is a well-formed request; hostile payloads are the
  // Server's to answer (serve_server_test).
  static util::JsonValue Call(Dispatcher& dispatcher,
                              const std::string& payload) {
    std::string error;
    const std::optional<Request> request = ParseRequest(payload, &error, nullptr);
    EXPECT_TRUE(request.has_value()) << payload << ": " << error;
    if (!request.has_value()) return util::JsonValue();
    return util::JsonValue::Parse(dispatcher.Dispatch(*request));
  }

  static fsm::EnvironmentFsm* home_;
  static runtime::Fleet* fleet_;
  static fsm::StateVector* overnight_;
};

fsm::EnvironmentFsm* DispatcherTest::home_ = nullptr;
runtime::Fleet* DispatcherTest::fleet_ = nullptr;
fsm::StateVector* DispatcherTest::overnight_ = nullptr;

TEST_F(DispatcherTest, PingEchoesIdAndProtocol) {
  Dispatcher dispatcher(*fleet_, DefaultOptions(), nullptr);
  const auto response =
      Call(dispatcher, R"({"id": 17, "type": "ping"})");
  EXPECT_TRUE(ResponseOk(response));
  EXPECT_EQ(response.At("id").AsInt(), 17);
  EXPECT_EQ(response.At("protocol").AsInt(), kProtocolVersion);
}

TEST_F(DispatcherTest, SuggestValidation) {
  Dispatcher dispatcher(*fleet_, DefaultOptions(), nullptr);
  // Tenant outside the catalog.
  auto response = Call(
      dispatcher, R"({"id": 1, "type": "suggest_action", "tenant": 7,
                      "minute": 480})");
  EXPECT_EQ(response.At("error").AsString(), kErrUnknownTenant);
  response = Call(
      dispatcher, R"({"id": 2, "type": "suggest_action", "tenant": -1,
                      "minute": 480})");
  EXPECT_EQ(response.At("error").AsString(), kErrUnknownTenant);
  // Missing minute.
  response = Call(dispatcher,
                  R"({"id": 3, "type": "suggest_action", "tenant": 0})");
  EXPECT_EQ(response.At("error").AsString(), kErrBadRequest);
  // Malformed state.
  response = Call(
      dispatcher, R"({"id": 4, "type": "suggest_action", "tenant": 0,
                      "minute": 480, "state": "overnight"})");
  EXPECT_EQ(response.At("error").AsString(), kErrBadRequest);
  // A state of the wrong arity trips the Fleet contract check, which must
  // come back as a bad_request response, not an exception.
  response = Call(
      dispatcher, R"({"id": 5, "type": "suggest_action", "tenant": 0,
                      "minute": 480, "state": [1, 1]})");
  EXPECT_FALSE(ResponseOk(response));
}

TEST_F(DispatcherTest, MinutesOutsideTheDayAreBadRequests) {
  // A minute that is not an integer in [0, 1439] must be refused, not
  // narrowed (4294967776 used to wrap to 480 and be echoed back as 480)
  // or clamped (1500 keyed P_safe with an unlearned time bucket).
  Dispatcher dispatcher(*fleet_, DefaultOptions(), nullptr);
  for (const char* minute : {"-1", "1440", "480.5", "4294967776"}) {
    SCOPED_TRACE(minute);
    auto response = Call(dispatcher,
                         std::string(R"({"id": 1, "type": "suggest_action",)"
                                     R"( "tenant": 0, "minute": )") +
                             minute + "}");
    EXPECT_EQ(response.At("error").AsString(), kErrBadRequest);
    response = Call(dispatcher,
                    std::string(R"({"id": 2, "type": "suggest_minutes",)"
                                R"( "tenant": 0, "minutes": [480, )") +
                        minute + "]}");
    EXPECT_EQ(response.At("error").AsString(), kErrBadRequest);
  }
}

TEST_F(DispatcherTest, TenantsAndStatesThatAreNotIntsAreBadRequests) {
  // A tenant or state entry must be an int as sent, not rounded or
  // narrowed: state 4294967297 used to be served as state 1, 0.5 as 1 and
  // 1e300 as 0, and tenant 0.4 as tenant 0.
  Dispatcher dispatcher(*fleet_, DefaultOptions(), nullptr);
  std::string other_entries;  // the overnight state after device 0
  for (std::size_t d = 1; d < overnight_->size(); ++d) {
    other_entries += ", " + std::to_string((*overnight_)[d]);
  }
  for (const char* value :
       {"4294967297", "-4294967296", "1e300", "0.5", "0.4"}) {
    SCOPED_TRACE(value);
    auto response =
        Call(dispatcher,
             std::string(R"({"id": 1, "type": "suggest_action", "tenant": 0,)"
                         R"( "minute": 480, "state": [)") +
                 value + other_entries + "]}");
    EXPECT_EQ(response.At("error").AsString(), kErrBadRequest);
    response = Call(dispatcher,
                    std::string(R"({"id": 2, "type": "suggest_action",)"
                                R"( "minute": 480, "tenant": )") +
                        value + "}");
    EXPECT_EQ(response.At("error").AsString(), kErrBadRequest);
  }
}

TEST_F(DispatcherTest, SuggestActionParityWithDirectFleetCall) {
  // The acceptance pin: a day of per-minute suggest_action requests
  // through the wire handlers must be bit-identical to one direct batched
  // Fleet::SuggestMinutes call.
  Dispatcher dispatcher(*fleet_, DefaultOptions(), nullptr);
  std::vector<int> minutes;
  for (int minute = 0; minute < util::kMinutesPerDay; minute += 1) {
    minutes.push_back(minute);
  }
  const std::vector<fsm::ActionVector> direct =
      fleet_->SuggestMinutes(0, *overnight_, minutes);
  ASSERT_EQ(direct.size(), minutes.size());
  for (std::size_t i = 0; i < minutes.size(); ++i) {
    const auto response = Call(
        dispatcher,
        R"({"id": 1, "type": "suggest_action", "tenant": 0, "minute": )" +
            std::to_string(minutes[i]) + "}");
    ASSERT_TRUE(ResponseOk(response)) << "minute " << minutes[i];
    const util::JsonArray& action = response.At("action").AsArray();
    ASSERT_EQ(action.size(), direct[i].size());
    for (std::size_t d = 0; d < action.size(); ++d) {
      EXPECT_EQ(action[d].AsInt(), direct[i][d])
          << "minute " << minutes[i] << " device " << d;
    }
  }
}

TEST_F(DispatcherTest, SuggestMinutesBatchMatchesDirectCall) {
  Dispatcher dispatcher(*fleet_, DefaultOptions(), nullptr);
  const std::vector<int> minutes = {0, 60, 480, 481, 720, 1200, 1439};
  std::string list;
  for (int minute : minutes) {
    if (!list.empty()) list += ",";
    list += std::to_string(minute);
  }
  const auto response = Call(
      dispatcher, R"({"id": 1, "type": "suggest_minutes", "tenant": 1,
                      "minutes": [)" + list + "]}");
  ASSERT_TRUE(ResponseOk(response));
  const std::vector<fsm::ActionVector> direct =
      fleet_->SuggestMinutes(1, *overnight_, minutes);
  const util::JsonArray& actions = response.At("actions").AsArray();
  ASSERT_EQ(actions.size(), direct.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const util::JsonArray& action = actions[i].AsArray();
    ASSERT_EQ(action.size(), direct[i].size());
    for (std::size_t d = 0; d < action.size(); ++d) {
      EXPECT_EQ(action[d].AsInt(), direct[i][d]);
    }
  }
}

TEST_F(DispatcherTest, IngestCountsGoodAndBadLines) {
  const testing_util::ScratchDir scratch("serve_dispatcher_ingest");
  Dispatcher dispatcher(*fleet_, LogOptions(scratch.path()), nullptr);
  // Two real log lines (round-tripped through the event model) plus junk.
  events::Event event;
  event.date = util::SimTime(480);
  event.device_label = "Hue lamp";
  event.capability = "switch";
  event.attribute = "power";
  event.attribute_value = "on";
  event.command = "on";
  const std::string good = event.ToLogLine();
  util::JsonArray lines;
  lines.emplace_back(good);
  lines.emplace_back("not an event");
  lines.emplace_back(good);
  lines.emplace_back(42);  // not even a string
  const auto response = Call(dispatcher, IngestPayload(0, std::move(lines)));
  ASSERT_TRUE(ResponseOk(response));
  EXPECT_EQ(response.At("accepted").AsInt(), 2);
  EXPECT_EQ(response.At("rejected").AsInt(), 2);
  EXPECT_EQ(util::io::ReadFile(IngestLogPath(scratch.path(), 0)),
            good + "\n" + good + "\n");
  EXPECT_FALSE(util::io::FileExists(IngestLogPath(scratch.path(), 1)));
}

TEST_F(DispatcherTest, IngestRejectsMinutesThatAreNotWholeWithin2To53) {
  const testing_util::ScratchDir scratch("serve_dispatcher_minutes");
  Dispatcher dispatcher(*fleet_, LogOptions(scratch.path()), nullptr);
  util::JsonArray lines;
  lines.emplace_back(R"({"event_minute":480,"device_label":"light"})");
  lines.emplace_back(R"({"event_minute":1e300,"device_label":"light"})");
  lines.emplace_back(R"({"event_minute":480.5,"device_label":"light"})");
  lines.emplace_back(R"({"event_minute":9007199254740994})");
  const auto response = Call(dispatcher, IngestPayload(0, std::move(lines)));
  ASSERT_TRUE(ResponseOk(response));
  EXPECT_EQ(response.At("accepted").AsInt(), 1);
  EXPECT_EQ(response.At("rejected").AsInt(), 3);
  EXPECT_EQ(events::LoggerApp::ParseLog(
                util::io::ReadFile(IngestLogPath(scratch.path(), 0)), nullptr)
                .size(),
            1u);
}

TEST_F(DispatcherTest, OneTenantIngestsPastAHundredThousandEvents) {
  // No cap: a tenant's log takes every event across requests.
  const testing_util::ScratchDir scratch("serve_dispatcher_many");
  Dispatcher dispatcher(*fleet_, LogOptions(scratch.path()), nullptr);
  constexpr int kRequests = 11;
  constexpr int kPerRequest = 10000;
  std::int64_t accepted = 0;
  for (int r = 0; r < kRequests; ++r) {
    util::JsonArray lines;
    for (int i = 0; i < kPerRequest; ++i) {
      lines.emplace_back(MinuteLine(r * kPerRequest + i, "lamp"));
    }
    const auto response =
        Call(dispatcher, IngestPayload(1, std::move(lines)));
    ASSERT_TRUE(ResponseOk(response));
    EXPECT_EQ(response.At("rejected").AsInt(), 0);
    accepted += response.At("accepted").AsInt();
  }
  EXPECT_EQ(accepted, kRequests * kPerRequest);
  std::size_t dropped = 1;
  const std::vector<events::Event> logged = events::LoggerApp::ParseLog(
      util::io::ReadFile(IngestLogPath(scratch.path(), 1)), &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(logged.size(), static_cast<std::size_t>(kRequests * kPerRequest));
  EXPECT_EQ(logged.back().date.minutes(), kRequests * kPerRequest - 1);
}

TEST_F(DispatcherTest, DrainOverALargeExistingLogKeepsTheFile) {
  // Drain appends nothing and rewrites nothing: an earlier run's large log
  // keeps its inode, and its bytes gain exactly the new line.
  const testing_util::ScratchDir scratch("serve_dispatcher_large");
  const std::string path = IngestLogPath(scratch.path(), 0);
  std::string earlier;
  for (int i = 0; i < 40000; ++i) earlier += MinuteLine(i, "lamp") + "\n";
  util::io::AtomicWriteFile(path, earlier);
  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);

  Dispatcher dispatcher(*fleet_, LogOptions(scratch.path()), nullptr);
  util::JsonArray lines;
  lines.emplace_back(MinuteLine(7, "thermostat"));
  ASSERT_TRUE(ResponseOk(Call(dispatcher, IngestPayload(0, std::move(lines)))));
  EXPECT_EQ(dispatcher.FlushForDrain().checkpoints_saved, 2u);

  struct stat after {};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino);
  EXPECT_EQ(util::io::ReadFile(path),
            earlier + MinuteLine(7, "thermostat") + "\n");
}

TEST_F(DispatcherTest, ALineTornByACrashCostsThatLineAlone) {
  // A crash mid-write leaves a file that ends mid-line. The next run's
  // first append starts a new line, so the reader drops the torn line and
  // keeps every event before and after it.
  const testing_util::ScratchDir scratch("serve_dispatcher_torn");
  const std::string path = IngestLogPath(scratch.path(), 0);
  const std::string torn = MinuteLine(3, "lamp");
  util::io::AtomicWriteFile(path, MinuteLine(1, "lamp") + "\n" +
                                      MinuteLine(2, "lamp") + "\n" +
                                      torn.substr(0, torn.size() / 2));

  Dispatcher dispatcher(*fleet_, LogOptions(scratch.path()), nullptr);
  for (const int minute : {10, 11}) {
    util::JsonArray lines;
    lines.emplace_back(MinuteLine(minute, "door"));
    ASSERT_TRUE(
        ResponseOk(Call(dispatcher, IngestPayload(0, std::move(lines)))));
  }
  std::size_t dropped = 0;
  const std::vector<events::Event> logged =
      events::LoggerApp::ParseLog(util::io::ReadFile(path), &dropped);
  EXPECT_EQ(dropped, 1u);
  std::vector<std::int64_t> minutes;
  for (const events::Event& event : logged) {
    minutes.push_back(event.date.minutes());
  }
  EXPECT_EQ(minutes, (std::vector<std::int64_t>{1, 2, 10, 11}));
}

TEST_F(DispatcherTest, ConcurrentBatchesForOneTenantLandContiguous) {
  // Four threads ingest distinct batches to one tenant at once; each batch
  // must appear in the file as one unbroken run, in its own order.
  const testing_util::ScratchDir scratch("serve_dispatcher_race");
  Dispatcher dispatcher(*fleet_, LogOptions(scratch.path()), nullptr);
  constexpr int kThreads = 4;
  constexpr int kBatches = 8;
  constexpr int kPerBatch = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dispatcher, t] {
      for (int b = 0; b < kBatches; ++b) {
        const std::string label =
            "batch-" + std::to_string(t) + "-" + std::to_string(b);
        util::JsonArray lines;
        for (int i = 0; i < kPerBatch; ++i) {
          lines.emplace_back(MinuteLine(i, label));
        }
        EXPECT_TRUE(
            ResponseOk(Call(dispatcher, IngestPayload(0, std::move(lines)))));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::vector<events::Event> logged = events::LoggerApp::ParseLog(
      util::io::ReadFile(IngestLogPath(scratch.path(), 0)), nullptr);
  ASSERT_EQ(logged.size(),
            static_cast<std::size_t>(kThreads * kBatches * kPerBatch));
  std::set<std::string> seen;
  for (std::size_t run = 0; run < logged.size(); run += kPerBatch) {
    const std::string& label = logged[run].device_label;
    EXPECT_TRUE(seen.insert(label).second) << label << " split";
    for (int i = 0; i < kPerBatch; ++i) {
      EXPECT_EQ(logged[run + i].device_label, label) << "line " << run + i;
      EXPECT_EQ(logged[run + i].date.minutes(), i) << "line " << run + i;
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kThreads * kBatches));
}

TEST_F(DispatcherTest, MetricsAndHealthReportFleetShape) {
  runtime::Fleet& fleet = *fleet_;
  Dispatcher dispatcher(fleet, DefaultOptions(), &fleet.Metrics());
  auto response = Call(dispatcher, R"({"id": 1, "type": "metrics"})");
  ASSERT_TRUE(ResponseOk(response));
  EXPECT_TRUE(response.At("tenants").is_object());
  // The fleet snapshot carries the per-phase run timers and exactly one
  // bad-request count: the Server's serve.bad_requests, not a dispatcher
  // twin.
  std::set<std::string> histograms;
  for (const util::JsonValue& entry :
       response.At("fleet").At("histograms").AsArray()) {
    histograms.insert(entry.At("name").AsString());
  }
  for (const char* timer : {"runtime.fleet.workload_us",
                            "runtime.fleet.learn_us",
                            "runtime.fleet.optimize_us"}) {
    EXPECT_EQ(histograms.count(timer), 1u) << timer;
  }
  for (const util::JsonValue& entry :
       response.At("fleet").At("counters").AsArray()) {
    EXPECT_NE(entry.At("name").AsString(), "serve.bad_request");
  }

  response = Call(dispatcher, R"({"id": 2, "type": "health"})");
  ASSERT_TRUE(ResponseOk(response));
  EXPECT_EQ(response.At("tenants").AsInt(), 2);
  EXPECT_EQ(response.At("completed").AsInt(), 2);
  EXPECT_EQ(response.At("quarantined").AsInt(), 0);
}

TEST_F(DispatcherTest, RequestCountersTrackDispatches) {
  obs::Registry registry;
  Dispatcher dispatcher(*fleet_, DefaultOptions(), &registry);
  Call(dispatcher, R"({"id": 1, "type": "ping"})");
  Call(dispatcher, R"({"id": 2, "type": "ping"})");
  Call(dispatcher, R"({"id": 3, "type": "health"})");
  EXPECT_EQ(registry.GetCounter("serve.req.ping")->Value(), 2u);
  EXPECT_EQ(registry.GetCounter("serve.req.health")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("serve.responses_ok")->Value(), 3u);
  EXPECT_EQ(registry.GetCounter("serve.responses_error")->Value(), 0u);
  EXPECT_FALSE(registry.TakeSnapshot().HasCounter("serve.bad_request"));
}

TEST_F(DispatcherTest, CheckpointRequestWritesTenantFiles) {
  const testing_util::ScratchDir scratch("serve_dispatcher_ckpt");
  const std::string& dir = scratch.path();
  DispatcherOptions options = DefaultOptions();
  options.checkpoint_dir = dir;
  Dispatcher dispatcher(*fleet_, options, nullptr);
  const auto response = Call(dispatcher, R"({"id": 1, "type": "checkpoint"})");
  ASSERT_TRUE(ResponseOk(response));
  EXPECT_EQ(response.At("dir").AsString(), dir);
  EXPECT_EQ(response.At("saved").AsInt(), 2);
  EXPECT_EQ(response.At("failed").AsInt(), 0);
  EXPECT_TRUE(
      util::io::FileExists(runtime::Fleet::TenantCheckpointPath(dir, 0)));
  EXPECT_TRUE(
      util::io::FileExists(runtime::Fleet::TenantCheckpointPath(dir, 1)));
}

TEST_F(DispatcherTest, CheckpointRequestCarryingDirIsRefused) {
  // A client-chosen destination would let anyone who reaches the daemon
  // make it create directories and write files at any path it can write.
  const testing_util::ScratchDir scratch("serve_dispatcher_dir");
  const std::string target = scratch.path() + "/foreign";
  DispatcherOptions options = DefaultOptions();
  options.checkpoint_dir = scratch.path() + "/own";
  Dispatcher dispatcher(*fleet_, options, nullptr);
  const auto response = Call(
      dispatcher,
      R"({"id": 1, "type": "checkpoint", "dir": ")" + target + R"("})");
  EXPECT_EQ(response.At("error").AsString(), kErrBadRequest);
  EXPECT_FALSE(util::io::FileExists(target));
  EXPECT_FALSE(
      util::io::FileExists(runtime::Fleet::TenantCheckpointPath(target, 0)));
}

TEST_F(DispatcherTest, CheckpointAndIngestWithoutDirAreBadRequests) {
  // With nowhere to write, an accepted ingest would be lost silently.
  DispatcherOptions options = DefaultOptions();
  options.checkpoint_dir.clear();
  Dispatcher dispatcher(*fleet_, options, nullptr);
  auto response = Call(dispatcher, R"({"id": 1, "type": "checkpoint"})");
  EXPECT_EQ(response.At("error").AsString(), kErrBadRequest);
  util::JsonArray lines;
  lines.emplace_back(MinuteLine(1, "lamp"));
  response = Call(dispatcher, IngestPayload(0, std::move(lines)));
  EXPECT_EQ(response.At("error").AsString(), kErrBadRequest);
}

TEST_F(DispatcherTest, ShutdownSetsTheDrainFlag) {
  Dispatcher dispatcher(*fleet_, DefaultOptions(), nullptr);
  EXPECT_FALSE(dispatcher.draining());
  auto response = Call(dispatcher, R"({"id": 1, "type": "shutdown"})");
  EXPECT_TRUE(ResponseOk(response));
  EXPECT_TRUE(response.At("draining").AsBool());
  EXPECT_TRUE(dispatcher.draining());
  // Idempotent: a second shutdown is answered the same way.
  EXPECT_TRUE(ResponseOk(Call(dispatcher, R"({"id": 2, "type": "shutdown"})")));
  EXPECT_TRUE(dispatcher.draining());
}

TEST_F(DispatcherTest, ResponseOverTheFrameCapIsOneBadRequest) {
  // 30,000 suggested minutes encode past the 1 MiB frame cap. The request
  // gets one bad_request naming both sizes, counted as an error, and the
  // dispatcher answers the next request as usual.
  obs::Registry registry;
  Dispatcher dispatcher(*fleet_, DefaultOptions(), &registry);
  std::string minutes;
  for (int i = 0; i < 30000; ++i) {
    if (i > 0) minutes += ",";
    minutes += std::to_string(i % util::kMinutesPerDay);
  }
  const auto response = Call(
      dispatcher,
      R"({"id": 3, "type": "suggest_minutes", "tenant": 1, "minutes": [)" +
          minutes + "]}");
  EXPECT_EQ(response.At("id").AsInt(), 3);
  EXPECT_EQ(response.At("error").AsString(), kErrBadRequest);
  const std::string& detail = response.At("detail").AsString();
  const std::string cap = std::to_string(kMaxFramePayloadBytes);
  EXPECT_NE(detail.find(cap), std::string::npos) << detail;
  ASSERT_EQ(detail.rfind("response of ", 0), 0u) << detail;
  EXPECT_GT(std::stoull(detail.substr(12)), kMaxFramePayloadBytes) << detail;
  EXPECT_EQ(registry.GetCounter("serve.responses_error")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("serve.responses_ok")->Value(), 0u);

  EXPECT_TRUE(ResponseOk(Call(dispatcher, R"({"id": 4, "type": "ping"})")));
  EXPECT_EQ(registry.GetCounter("serve.responses_ok")->Value(), 1u);
}

TEST_F(DispatcherTest, IngestIsInTheLogBeforeDrain) {
  // The accepted line is on disk when the response is: a daemon killed
  // before its drain keeps it. Drain then only syncs it and checkpoints.
  const testing_util::ScratchDir scratch("serve_dispatcher_drain");
  const std::string& dir = scratch.path();
  Dispatcher dispatcher(*fleet_, LogOptions(dir), nullptr);
  util::JsonArray lines;
  lines.emplace_back(MinuteLine(77, "thermostat"));
  ASSERT_TRUE(ResponseOk(Call(dispatcher, IngestPayload(1, std::move(lines)))));
  const std::string expected = MinuteLine(77, "thermostat") + "\n";
  EXPECT_EQ(util::io::ReadFile(IngestLogPath(dir, 1)), expected);

  const DrainFlushReport report = dispatcher.FlushForDrain();
  EXPECT_EQ(report.checkpoints_saved, 2u);
  EXPECT_EQ(report.checkpoints_failed, 0u);
  EXPECT_EQ(util::io::ReadFile(IngestLogPath(dir, 1)), expected);
  EXPECT_FALSE(util::io::FileExists(IngestLogPath(dir, 0)));
}

TEST_F(DispatcherTest, FlushForDrainAppendsToAnEarlierRunsIngest) {
  // Two daemon runs on one directory: the second run must keep the first
  // run's events.
  const testing_util::ScratchDir scratch("serve_dispatcher_append");
  std::string expected;
  int minute = 0;
  for (const int count : {5, 3}) {
    Dispatcher dispatcher(*fleet_, LogOptions(scratch.path()), nullptr);
    util::JsonArray lines;
    for (int i = 0; i < count; ++i) {
      lines.emplace_back(MinuteLine(minute, "thermostat"));
      expected += MinuteLine(minute++, "thermostat") + "\n";
    }
    ASSERT_TRUE(
        ResponseOk(Call(dispatcher, IngestPayload(0, std::move(lines)))));
    dispatcher.FlushForDrain();
  }
  const std::string flushed =
      util::io::ReadFile(IngestLogPath(scratch.path(), 0));
  EXPECT_EQ(std::count(flushed.begin(), flushed.end(), '\n'), 8);
  EXPECT_EQ(flushed, expected);
}

}  // namespace
}  // namespace jarvis::serve
