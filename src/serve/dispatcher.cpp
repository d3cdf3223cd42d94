#include "serve/dispatcher.h"

#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

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
      tenant_count_(fleet.tenant_count()) {
  ingest_.resize(tenant_count_);
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
      case RequestType::kStall:
        fields = HandleStall();
        break;
    }
    if (responses_ok_ != nullptr) responses_ok_->Increment();
    return MakeOkResponse(request.id, std::move(fields));
  } catch (const RequestError& e) {
    if (responses_error_ != nullptr) responses_error_->Increment();
    return MakeErrorResponse(request.id, e.code(), e.what());
  } catch (const std::exception& e) {
    // A handler tripping a Fleet contract (CheckError and friends) is a
    // serving failure for THIS request, never for the daemon.
    if (responses_error_ != nullptr) responses_error_->Increment();
    return MakeErrorResponse(request.id, kErrHandlerFailed, e.what());
  } catch (...) {
    if (responses_error_ != nullptr) responses_error_->Increment();
    return MakeErrorResponse(request.id, kErrHandlerFailed,
                             "non-standard exception");
  }
}

void Dispatcher::SetShutdownCallback(std::function<void()> callback) {
  util::MutexLock lock(mutex_);
  shutdown_callback_ = std::move(callback);
}

// --- Handlers ----------------------------------------------------------------

util::JsonObject Dispatcher::HandlePing() {
  util::JsonObject fields;
  fields["protocol"] = kProtocolVersion;
  return fields;
}

util::JsonObject Dispatcher::HandleHealth() {
  const runtime::FleetReport report = fleet_.report();
  std::size_t buffered = 0;
  {
    util::MutexLock lock(mutex_);
    for (const auto& buffer : ingest_) buffered += buffer.size();
  }
  util::JsonObject fields;
  fields["protocol"] = kProtocolVersion;
  fields["tenants"] = static_cast<std::int64_t>(fleet_.tenant_count());
  fields["completed"] = static_cast<std::int64_t>(report.completed);
  fields["quarantined"] = static_cast<std::int64_t>(report.quarantined);
  fields["buffered_events"] = static_cast<std::int64_t>(buffered);
  return fields;
}

util::JsonObject Dispatcher::HandleIngest(const util::JsonValue& body) {
  const std::size_t tenant = ParseTenant(body);
  const util::JsonValue* lines = FindField(body, "lines");
  if (lines == nullptr || !lines->is_array()) {
    throw RequestError(kErrBadRequest, "missing array 'lines'");
  }
  std::vector<events::Event> parsed;
  parsed.reserve(lines->AsArray().size());
  std::size_t rejected = 0;
  for (const util::JsonValue& line : lines->AsArray()) {
    if (!line.is_string()) {
      ++rejected;
      continue;
    }
    // One bad log line poisons that line only: the hostile-input rule
    // applied per event, so a corrupted shard of a device log still
    // delivers its intact records.
    try {
      parsed.push_back(events::Event::FromLogLine(line.AsString()));
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  std::size_t accepted = 0;
  std::size_t buffered = 0;
  {
    util::MutexLock lock(mutex_);
    auto& buffer = ingest_[tenant];
    for (auto& event : parsed) {
      if (buffer.size() >= options_.max_ingest_events) {
        ++rejected;  // bounded memory: past the cap is refused, not queued
        continue;
      }
      buffer.push_back(std::move(event));
      ++accepted;
    }
    buffered = buffer.size();
  }
  util::JsonObject fields;
  fields["accepted"] = static_cast<std::int64_t>(accepted);
  fields["rejected"] = static_cast<std::int64_t>(rejected);
  fields["buffered"] = static_cast<std::int64_t>(buffered);
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
  const runtime::FleetCheckpointReport report = fleet_.SaveCheckpoints(dir);
  util::JsonObject fields;
  fields["dir"] = dir;
  fields["saved"] = static_cast<std::int64_t>(report.succeeded);
  fields["failed"] = static_cast<std::int64_t>(report.failed);
  fields["skipped"] = static_cast<std::int64_t>(report.skipped);
  return fields;
}

util::JsonObject Dispatcher::HandleShutdown() {
  std::function<void()> callback;
  {
    util::MutexLock lock(mutex_);
    if (!shutdown_fired_) {
      shutdown_fired_ = true;
      callback = shutdown_callback_;
    }
  }
  if (callback) callback();  // outside the lock: it flips the Server's flag
  util::JsonObject fields;
  fields["draining"] = true;
  return fields;
}

util::JsonObject Dispatcher::HandleStall() {
  if (!options_.allow_stall) {
    throw RequestError(kErrBadRequest, "stall is not enabled");
  }
  {
    util::MutexLock lock(mutex_);
    ++stalled_;
    while (!stalls_released_) {
      stall_gate_.Wait(mutex_);
    }
    --stalled_;
  }
  util::JsonObject fields;
  fields["stalled"] = true;
  return fields;
}

void Dispatcher::ReleaseStalls() {
  {
    util::MutexLock lock(mutex_);
    stalls_released_ = true;
  }
  stall_gate_.SignalAll();
}

std::size_t Dispatcher::stalled_now() const {
  util::MutexLock lock(mutex_);
  return stalled_;
}

std::size_t Dispatcher::ingested_events(std::size_t tenant) const {
  util::MutexLock lock(mutex_);
  return tenant < ingest_.size() ? ingest_[tenant].size() : 0;
}

// --- Drain flush -------------------------------------------------------------

DrainFlushReport Dispatcher::FlushForDrain() {
  DrainFlushReport report;
  if (options_.checkpoint_dir.empty()) return report;
  try {
    util::io::CreateDirectories(options_.checkpoint_dir);
  } catch (const util::io::IoError&) {
    // An uncreatable destination degrades every write below individually.
  }

  // Buffered ingest first: grab the buffers under the lock, write outside
  // it (AtomicWriteFile fsyncs; holding mutex_ across that would stall any
  // late stall/ingest bookkeeping for no reason).
  std::vector<std::vector<events::Event>> drained;
  {
    util::MutexLock lock(mutex_);
    drained.swap(ingest_);
    ingest_.resize(drained.size());
  }
  for (std::size_t tenant = 0; tenant < drained.size(); ++tenant) {
    if (drained[tenant].empty()) continue;
    std::string payload;
    for (const events::Event& event : drained[tenant]) {
      payload += event.ToLogLine();
      payload += '\n';
    }
    try {
      util::io::AtomicWriteFile(options_.checkpoint_dir + "/ingest-tenant-" +
                                    std::to_string(tenant) + ".log",
                                payload);
      ++report.ingest_files_written;
      report.ingest_events_flushed += drained[tenant].size();
    } catch (const util::io::IoError&) {
      // Drain must finish even on a sick disk; the checkpoint report below
      // carries the durable-state verdict.
    }
  }

  const runtime::FleetCheckpointReport checkpoints =
      fleet_.SaveCheckpoints(options_.checkpoint_dir);
  report.checkpoints_saved = checkpoints.succeeded;
  report.checkpoints_failed = checkpoints.failed;
  return report;
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
