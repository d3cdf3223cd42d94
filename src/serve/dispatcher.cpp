#include "serve/dispatcher.h"

#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "events/event.h"
#include "serve/frame.h"
#include "util/check.h"
#include "util/io.h"
#include "util/timeofday.h"

namespace jarvis::serve {

namespace {

// Internal control flow only: a handler that cannot satisfy a request
// throws RequestError with a stable wire code; Dispatch converts it to the
// one error response. It never escapes Dispatch.
class RequestError : public std::runtime_error {
 public:
  RequestError(const char* code, const std::string& detail)
      : std::runtime_error(detail), code_(code) {}
  const char* code() const { return code_; }

 private:
  const char* code_;
};

const util::JsonValue* FindField(const util::JsonValue& body,
                                 const char* key) {
  const auto& object = body.AsObject();
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

// An integer from the wire, in [lo, hi]. JSON numbers are doubles, so a
// fractional or out-of-range value is refused rather than rounded or
// narrowed: 0.5 must not serve as 1, nor a minute of 1500 key P_safe with
// an unlearned time bucket.
int RequireInt(const util::JsonValue* value, const std::string& what,
               int lo = std::numeric_limits<int>::min(),
               int hi = std::numeric_limits<int>::max()) {
  const std::optional<int> number =
      value == nullptr ? std::nullopt : value->AsIntIn(lo, hi);
  if (!number) {
    throw RequestError(kErrBadRequest, what + " must be an integer in [" +
                                           std::to_string(lo) + ", " +
                                           std::to_string(hi) + "]");
  }
  return *number;
}

util::JsonArray ActionToJson(const fsm::ActionVector& action) {
  util::JsonArray out;
  out.reserve(action.size());
  for (int slot : action) out.emplace_back(slot);
  return out;
}

}  // namespace

Dispatcher::Dispatcher(runtime::Fleet& fleet, DispatcherOptions options,
                       obs::Registry* registry)
    : fleet_(fleet),
      options_(std::move(options)),
      tenant_count_(fleet.tenant_count()),
      logs_(tenant_count_) {
  request_counters_.assign(kRequestTypeCount, nullptr);
  handle_timers_.assign(kRequestTypeCount, nullptr);
  if (registry != nullptr) {
    for (std::size_t i = 0; i < kRequestTypeCount; ++i) {
      const std::string name =
          RequestTypeName(static_cast<RequestType>(i));
      request_counters_[i] = registry->GetCounter("serve.req." + name);
      handle_timers_[i] = registry->GetTimerUs("serve.handle_us." + name);
    }
    responses_ok_ = registry->GetCounter("serve.responses_ok");
    responses_error_ = registry->GetCounter("serve.responses_error");
  }
}

std::string Dispatcher::Dispatch(const Request& request) {
  const auto type_index = static_cast<std::size_t>(request.type);
  if (request_counters_[type_index] != nullptr) {
    request_counters_[type_index]->Increment();
  }
  obs::ScopedTimer timer(handle_timers_[type_index]);
  std::string response;
  bool ok = false;
  try {
    util::JsonObject fields;
    switch (request.type) {
      case RequestType::kPing:
        fields = HandlePing();
        break;
      case RequestType::kIngest:
        fields = HandleIngest(request.body);
        break;
      case RequestType::kSuggestAction:
        fields = HandleSuggestAction(request.body);
        break;
      case RequestType::kSuggestMinutes:
        fields = HandleSuggestMinutes(request.body);
        break;
      case RequestType::kMetrics:
        fields = HandleMetrics();
        break;
      case RequestType::kCheckpoint:
        fields = HandleCheckpoint(request.body);
        break;
      case RequestType::kHealth:
        fields = HandleHealth();
        break;
      case RequestType::kShutdown:
        fields = HandleShutdown();
        break;
    }
    response = MakeOkResponse(request.id, std::move(fields));
    ok = true;
  } catch (const RequestError& e) {
    response = MakeErrorResponse(request.id, e.code(), e.what());
  } catch (const std::exception& e) {
    // A handler tripping a Fleet contract (CheckError and friends) is a
    // serving failure for THIS request, never for the daemon.
    response = MakeErrorResponse(request.id, kErrHandlerFailed, e.what());
  } catch (...) {
    response = MakeErrorResponse(request.id, kErrHandlerFailed,
                                 "non-standard exception");
  }
  if (response.size() > kMaxFramePayloadBytes) {
    // One frame cannot carry it (e.g. a suggest_minutes for 30,000
    // minutes), and an unanswered request would leave its client waiting
    // forever: the request gets an error that fits instead.
    ok = false;
    response = MakeErrorResponse(
        request.id, kErrBadRequest,
        "response of " + std::to_string(response.size()) +
            " bytes exceeds the " + std::to_string(kMaxFramePayloadBytes) +
            "-byte frame cap");
  }
  obs::Counter* outcome = ok ? responses_ok_ : responses_error_;
  if (outcome != nullptr) outcome->Increment();
  return response;
}

// --- Handlers ----------------------------------------------------------------

util::JsonObject Dispatcher::HandlePing() {
  util::JsonObject fields;
  fields["protocol"] = kProtocolVersion;
  return fields;
}

util::JsonObject Dispatcher::HandleHealth() {
  const runtime::FleetReport report = fleet_.report();
  util::JsonObject fields;
  fields["protocol"] = kProtocolVersion;
  fields["tenants"] = static_cast<std::int64_t>(fleet_.tenant_count());
  fields["completed"] = static_cast<std::int64_t>(report.completed);
  fields["quarantined"] = static_cast<std::int64_t>(report.quarantined);
  return fields;
}

util::JsonObject Dispatcher::HandleIngest(const util::JsonValue& body) {
  if (options_.checkpoint_dir.empty()) {
    throw RequestError(kErrBadRequest, "the daemon has no checkpoint dir");
  }
  const std::size_t tenant = ParseTenant(body);
  const util::JsonValue* lines = FindField(body, "lines");
  if (lines == nullptr || !lines->is_array()) {
    throw RequestError(kErrBadRequest, "missing array 'lines'");
  }
  // One bad log line poisons that line only: the hostile-input rule
  // applied per event, so a corrupted shard of a device log still delivers
  // its intact records.
  std::vector<std::pair<std::int64_t, std::string>> parsed;  // minute, line
  std::size_t rejected = 0;
  for (const util::JsonValue& line : lines->AsArray()) {
    if (!line.is_string()) {
      ++rejected;
      continue;
    }
    try {
      const events::Event event = events::Event::FromLogLine(line.AsString());
      parsed.emplace_back(event.date.minutes(), event.ToLogLine());
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  std::size_t accepted = 0;
  if (!parsed.empty()) {
    TenantLog& log = logs_[tenant];
    util::MutexLock lock(log.mutex);
    if (!log.file.has_value()) {
      util::io::CreateDirectories(options_.checkpoint_dir);
      log.file.emplace(options_.checkpoint_dir + "/ingest-tenant-" +
                       std::to_string(tenant) + ".log");
      try {
        log.newest_minute =
            events::Event::FromLogLine(log.file->LastWholeLine())
                .date.minutes();
      } catch (const util::JsonError&) {
        // No readable last line (a new log): nothing to stay after.
      }
    }
    // The log stays in time order: an event older than the newest one
    // appended is rejected (a re-sent batch), one in the same minute is
    // not (a client's batches may split a minute).
    std::int64_t newest = log.newest_minute;
    std::string appended;
    for (const auto& [minute, text] : parsed) {
      if (minute < newest) {
        ++rejected;
        continue;
      }
      newest = minute;
      appended += text;
      appended += '\n';
      ++accepted;
    }
    if (!appended.empty()) {
      // One write: the batch lands contiguous, and it is in the file
      // before the response says it was accepted.
      log.file->Append(appended);
      log.newest_minute = newest;
    }
  }
  util::JsonObject fields;
  fields["accepted"] = static_cast<std::int64_t>(accepted);
  fields["rejected"] = static_cast<std::int64_t>(rejected);
  return fields;
}

util::JsonObject Dispatcher::HandleSuggestAction(const util::JsonValue& body) {
  const std::size_t tenant = ParseTenant(body);
  const int minute = RequireInt(FindField(body, "minute"), "'minute'", 0,
                                util::kMinutesPerDay - 1);
  const fsm::StateVector state = ParseState(body);
  std::vector<fsm::ActionVector> actions;
  try {
    // Fleet::SuggestMinutes is thread-safe: it serializes per tenant.
    actions = fleet_.SuggestMinutes(tenant, state, {minute});
  } catch (const util::CheckError& e) {
    throw RequestError(kErrBadRequest, e.what());
  } catch (const std::logic_error& e) {
    throw RequestError(kErrNoPolicy, e.what());
  }
  util::JsonObject fields;
  fields["tenant"] = static_cast<std::int64_t>(tenant);
  fields["minute"] = minute;
  fields["action"] = util::JsonValue(ActionToJson(actions.at(0)));
  return fields;
}

util::JsonObject Dispatcher::HandleSuggestMinutes(
    const util::JsonValue& body) {
  const std::size_t tenant = ParseTenant(body);
  const util::JsonValue* minutes_field = FindField(body, "minutes");
  if (minutes_field == nullptr || !minutes_field->is_array()) {
    throw RequestError(kErrBadRequest, "missing array 'minutes'");
  }
  std::vector<int> minutes;
  minutes.reserve(minutes_field->AsArray().size());
  for (const util::JsonValue& minute : minutes_field->AsArray()) {
    minutes.push_back(RequireInt(&minute, "'minutes' entries", 0,
                                 util::kMinutesPerDay - 1));
  }
  const fsm::StateVector state = ParseState(body);
  std::vector<fsm::ActionVector> actions;
  try {
    actions = fleet_.SuggestMinutes(tenant, state, minutes);  // thread-safe
  } catch (const util::CheckError& e) {
    throw RequestError(kErrBadRequest, e.what());
  } catch (const std::logic_error& e) {
    throw RequestError(kErrNoPolicy, e.what());
  }
  util::JsonArray encoded;
  encoded.reserve(actions.size());
  for (const fsm::ActionVector& action : actions) {
    encoded.emplace_back(ActionToJson(action));
  }
  util::JsonObject fields;
  fields["tenant"] = static_cast<std::int64_t>(tenant);
  fields["actions"] = util::JsonValue(std::move(encoded));
  return fields;
}

util::JsonObject Dispatcher::HandleMetrics() {
  util::JsonObject fields;
  fields["fleet"] = fleet_.TakeMetricsSnapshot().ToJson();
  fields["tenants"] = fleet_.AggregateTenantMetrics().ToJson();
  return fields;
}

util::JsonObject Dispatcher::HandleCheckpoint(const util::JsonValue& body) {
  // The destination is the daemon's own; a client must not pick a path
  // the daemon would create and write.
  if (FindField(body, "dir") != nullptr) {
    throw RequestError(kErrBadRequest,
                       "'dir' is not accepted; checkpoints go to the daemon's "
                       "checkpoint dir");
  }
  const std::string& dir = options_.checkpoint_dir;
  if (dir.empty()) {
    throw RequestError(kErrBadRequest, "the daemon has no checkpoint dir");
  }
  SyncIngestLogs();
  const runtime::FleetCheckpointReport report = fleet_.SaveCheckpoints(dir);
  util::JsonObject fields;
  fields["dir"] = dir;
  fields["saved"] = static_cast<std::int64_t>(report.succeeded);
  fields["failed"] = static_cast<std::int64_t>(report.failed);
  fields["skipped"] = static_cast<std::int64_t>(report.skipped);
  return fields;
}

util::JsonObject Dispatcher::HandleShutdown() {
  RequestDrain();
  util::JsonObject fields;
  fields["draining"] = true;
  return fields;
}

// --- Drain flush -------------------------------------------------------------

DrainFlushReport Dispatcher::FlushForDrain() {
  DrainFlushReport report;
  if (options_.checkpoint_dir.empty()) return report;
  try {
    SyncIngestLogs();
  } catch (const util::io::IoError&) {
    // Drain must finish even on a sick disk; the checkpoint report below
    // carries the durable-state verdict.
  }
  const runtime::FleetCheckpointReport checkpoints =
      fleet_.SaveCheckpoints(options_.checkpoint_dir);
  report.checkpoints_saved = checkpoints.succeeded;
  report.checkpoints_failed = checkpoints.failed;
  return report;
}

void Dispatcher::SyncIngestLogs() {
  for (TenantLog& log : logs_) {
    util::MutexLock lock(log.mutex);
    if (log.file.has_value()) log.file->Sync();
  }
}

// --- Field parsing helpers ---------------------------------------------------

std::size_t Dispatcher::ParseTenant(const util::JsonValue& body) const {
  const int tenant = RequireInt(FindField(body, "tenant"), "'tenant'");
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= tenant_count_) {
    throw RequestError(kErrUnknownTenant,
                       "tenant " + std::to_string(tenant) +
                           " outside the serving catalog of " +
                           std::to_string(tenant_count_));
  }
  return static_cast<std::size_t>(tenant);
}

fsm::StateVector Dispatcher::ParseState(const util::JsonValue& body) const {
  const util::JsonValue* state_field = FindField(body, "state");
  if (state_field == nullptr) {
    if (options_.default_state.empty()) {
      throw RequestError(kErrBadRequest,
                         "no 'state' and the daemon has no default state");
    }
    return options_.default_state;
  }
  if (!state_field->is_array()) {
    throw RequestError(kErrBadRequest, "'state' must be an array");
  }
  fsm::StateVector state;
  state.reserve(state_field->AsArray().size());
  for (const util::JsonValue& entry : state_field->AsArray()) {
    state.push_back(RequireInt(&entry, "'state' entries"));
  }
  return state;
}

}  // namespace jarvis::serve
