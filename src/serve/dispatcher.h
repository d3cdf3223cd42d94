// Request dispatch for the serving daemon: parsed request → Fleet call →
// encode.
//
// The Dispatcher is the handler half of the transport/handler split
// (DESIGN.md §15): it consumes parsed Requests and produces response
// payloads, with no knowledge of sockets, fds, or framing — which is
// exactly what makes every handler unit-testable against an in-memory
// Fleet. The Server owns I/O and request decoding (ParseRequest); this
// class owns semantics.
//
// Failure discipline (the persist::Checkpoint rule applied to requests):
// Dispatch NEVER throws and never kills the daemon. Hostile request bodies
// (wrong field shapes, out-of-range tenants, invalid states) each produce
// one error response with a stable error code and one counter increment;
// a handler that throws internally (e.g. a Fleet contract check) is caught
// and reported as handler_failed.
//
// Concurrency: Dispatch runs on the thread that read the request, one per
// served connection, so several run at once when several connections do.
//   * Suggestion handlers call Fleet::SuggestMinutes concurrently — it is
//     thread-safe on its own: the fleet serializes callers per tenant and
//     answers each call with one batched forward per 256 minutes, while
//     distinct tenants run fully in parallel.
//   * Each tenant's ingest log sits under its own lock, so two
//     connections' batches never interleave in one file.
//   * The drain flag is an atomic; metrics/health/checkpoint ride the
//     Fleet's own thread-safe API.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/fleet.h"
#include "serve/protocol.h"
#include "util/io.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace jarvis::serve {

struct DispatcherOptions {
  // Default observation for suggestion requests that omit "state" (the
  // daemon owner knows the home model; thin clients often don't). Empty =
  // state is required on the wire.
  fsm::StateVector default_state;
  // Where `checkpoint` requests and the final drain flush write, and where
  // `ingest` appends each tenant's events (ingest-tenant-N.log). Empty =
  // checkpoint and ingest requests are refused and drain flushes nothing.
  // Clients cannot choose another destination.
  std::string checkpoint_dir;
};

// What the final drain flush wrote (DESIGN.md §15 drain state machine).
struct DrainFlushReport {
  std::size_t checkpoints_saved = 0;
  std::size_t checkpoints_failed = 0;
};

class Dispatcher {
 public:
  // `fleet` must outlive the dispatcher; its tenants should have completed
  // a Run (suggestion handlers answer no_policy otherwise). A non-null
  // `registry` wires serve.req.* counters and per-type handler latency.
  Dispatcher(runtime::Fleet& fleet, DispatcherOptions options,
             obs::Registry* registry);

  // Routes a parsed request and encodes the response. Never throws, and
  // never returns a payload over kMaxFramePayloadBytes: a response that
  // would not fit one frame is answered as one bad_request instead.
  std::string Dispatch(const Request& request);

  // The drain flag: set by a `shutdown` request or by the owner (e.g. on
  // SIGINT), never cleared. The Server refuses new requests once it is
  // set.
  void RequestDrain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // Final durable flush for graceful drain: syncs the ingest logs, then
  // writes per-tenant fleet checkpoints through util::io's atomic path into
  // options.checkpoint_dir. Call only once no Dispatch is running.
  DrainFlushReport FlushForDrain();

 private:
  // One tenant's ingest log, opened at the tenant's first ingest.
  struct TenantLog {
    util::Mutex mutex;
    std::optional<util::io::AppendFile> file JARVIS_GUARDED_BY(mutex);
  };

  util::JsonObject HandlePing();
  util::JsonObject HandleHealth();
  util::JsonObject HandleIngest(const util::JsonValue& body);
  util::JsonObject HandleSuggestAction(const util::JsonValue& body);
  util::JsonObject HandleSuggestMinutes(const util::JsonValue& body);
  util::JsonObject HandleMetrics();
  util::JsonObject HandleCheckpoint(const util::JsonValue& body);
  util::JsonObject HandleShutdown();

  // A tenant or state entry that is not an integer in int range is a
  // bad_request; a whole-number tenant outside [0, tenant_count_) is an
  // unknown_tenant.
  std::size_t ParseTenant(const util::JsonValue& body) const;
  fsm::StateVector ParseState(const util::JsonValue& body) const;

  // Fsyncs every open ingest log. Throws util::io::IoError.
  void SyncIngestLogs();

  runtime::Fleet& fleet_;          // unguarded: internally synchronized
  const DispatcherOptions options_;  // unguarded: fixed at construction
  // The serving catalog covers the tenants present when the daemon
  // started.
  const std::size_t tenant_count_;  // unguarded: fixed at construction
  std::vector<TenantLog> logs_;  // unguarded: sized at construction
  std::atomic<bool> draining_{false};  // unguarded: atomic
  // Instrument pointers wired once in the constructor; the instruments are
  // internally synchronized atomics.
  std::vector<obs::Counter*> request_counters_;  // unguarded: wired in ctor
  std::vector<obs::Histogram*> handle_timers_;   // unguarded: wired in ctor
  obs::Counter* responses_ok_ = nullptr;         // unguarded: wired in ctor
  obs::Counter* responses_error_ = nullptr;      // unguarded: wired in ctor
};

}  // namespace jarvis::serve
