// Request/response model of the serving protocol (DESIGN.md §15).
//
// Every frame payload is one JSON document. Requests carry an integer
// `id` (echoed verbatim in the response so clients can correlate it), a
// string `type` from the catalog below, and
// type-specific fields. Responses carry the echoed `id`, `ok`, and either
// result fields (ok) or `error` (a stable machine-readable code) plus
// `detail` (human-readable).
//
// ParseRequest follows the hostile-input discipline: it NEVER throws.
// Garbage JSON, a missing type, or an unknown type come back as a parse
// failure the server answers with one error response — decode problems are
// data, not exceptions, and must never kill the daemon.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/json.h"

namespace jarvis::serve {

inline constexpr int kProtocolVersion = 1;

// The request catalog. Order is stable (counters index by it).
enum class RequestType {
  kPing,            // liveness + protocol version
  kIngest,          // append device-event log lines to a tenant's log
  kSuggestAction,   // best safe joint action for (tenant, state, minute)
  kSuggestMinutes,  // batched suggestions for many minutes at once
  kMetrics,         // fleet + aggregated tenant metrics snapshot
  kCheckpoint,      // trigger a durable fleet checkpoint now
  kHealth,          // serving counters + fleet shape
  kShutdown,        // begin graceful drain
};
inline constexpr std::size_t kRequestTypeCount = 8;

// Stable wire name ("ping", "ingest", ...).
const char* RequestTypeName(RequestType type);
// Null for a name outside the catalog.
std::optional<RequestType> RequestTypeFromName(const std::string& name);

// Stable error codes (the `error` field of a failed response).
inline constexpr char kErrMalformedFrame[] = "malformed_frame";
inline constexpr char kErrBadRequest[] = "bad_request";
inline constexpr char kErrDraining[] = "draining";
inline constexpr char kErrUnknownTenant[] = "unknown_tenant";
inline constexpr char kErrNoPolicy[] = "no_policy";
inline constexpr char kErrHandlerFailed[] = "handler_failed";

struct Request {
  std::int64_t id = 0;
  RequestType type = RequestType::kPing;
  util::JsonValue body;  // the full request document
};

// Decodes a frame payload into a Request. Returns nullopt (and a
// diagnostic in `error`) for anything that is not a JSON object with a
// known `type` and an id that is absent or a whole number within ±2^53.
// On a refusal, `id` (when non-null) receives the request id if the
// payload carried a valid one before the field that failed (e.g. an
// unknown type), else 0: echoing it lets the client correlate the error
// response. Never throws.
std::optional<Request> ParseRequest(const std::string& payload,
                                    std::string* error, std::int64_t* id);

// Response builders (compact JSON, ready to frame).
std::string MakeOkResponse(std::int64_t id, util::JsonObject fields);
std::string MakeErrorResponse(std::int64_t id, const std::string& code,
                              const std::string& detail);

// Client-side response accessor (also used by tests); tolerates only what
// MakeOkResponse/MakeErrorResponse produce. Throws util::JsonError on a
// document that is not a response.
bool ResponseOk(const util::JsonValue& response);

}  // namespace jarvis::serve
