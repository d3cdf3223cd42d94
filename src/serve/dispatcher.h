// Request dispatch for the serving daemon: parsed request → Fleet call →
// encode.
//
// The Dispatcher is the handler half of the transport/handler split
// (DESIGN.md §15): it consumes parsed Requests and produces response
// payloads, with no knowledge of sockets, fds, or framing — which is
// exactly what makes every handler unit-testable against an in-memory
// Fleet. The Server owns admission, I/O and request decoding
// (ParseRequest); this class owns semantics.
//
// Failure discipline (the persist::Checkpoint rule applied to requests):
// Dispatch NEVER throws and never kills the daemon. Hostile request bodies
// (wrong field shapes, out-of-range tenants, invalid states) each produce
// one error response with a stable error code and one counter increment;
// a handler that throws internally (e.g. a Fleet contract check) is caught
// and reported as handler_failed.
//
// Concurrency: Dispatch runs on ThreadPool workers, many at once.
//   * Suggestion handlers call Fleet::SuggestMinutes concurrently — it is
//     thread-safe on its own: the fleet serializes callers per tenant and
//     answers each call with one batched forward per 256 minutes, while
//     distinct tenants run fully in parallel.
//   * Ingest buffers and stall bookkeeping sit under mutex_.
//   * Metrics/health/checkpoint ride the Fleet's own thread-safe API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "events/event.h"
#include "obs/metrics.h"
#include "runtime/fleet.h"
#include "serve/protocol.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace jarvis::serve {

struct DispatcherOptions {
  // Default observation for suggestion requests that omit "state" (the
  // daemon owner knows the home model; thin clients often don't). Empty =
  // state is required on the wire.
  fsm::StateVector default_state;
  // Where `checkpoint` requests and the final drain flush write (empty =
  // checkpoint requests are refused and drain flushes nothing). Clients
  // cannot choose another destination.
  std::string checkpoint_dir;
  // Per-tenant cap on buffered ingested events; events past the cap are
  // rejected (counted), not queued — bounded memory under a log flood.
  std::size_t max_ingest_events = 100000;
  // Enables the `stall` request (parks the handling worker until
  // ReleaseStalls). Test/bench-only: it exists to create deterministic
  // overload and drain-under-load scenarios; production daemons leave it
  // off and answer stall with bad_request.
  bool allow_stall = false;
};

// What the final drain flush wrote (DESIGN.md §15 drain state machine).
struct DrainFlushReport {
  std::size_t checkpoints_saved = 0;
  std::size_t checkpoints_failed = 0;
  std::size_t ingest_files_written = 0;
  std::size_t ingest_events_flushed = 0;
};

class Dispatcher {
 public:
  // `fleet` must outlive the dispatcher; its tenants should have completed
  // a Run (suggestion handlers answer no_policy otherwise). A non-null
  // `registry` wires serve.req.* counters and per-type handler latency.
  Dispatcher(runtime::Fleet& fleet, DispatcherOptions options,
             obs::Registry* registry);

  // Routes a parsed request and encodes the response. Never throws.
  std::string Dispatch(const Request& request);

  // Invoked (at most once) when a shutdown request is accepted; the Server
  // wires this to its drain flag.
  void SetShutdownCallback(std::function<void()> callback)
      JARVIS_EXCLUDES(mutex_);

  // Final durable flush for graceful drain: per-tenant fleet checkpoints
  // plus buffered ingest events, all through util::io's atomic path into
  // options.checkpoint_dir. Call only after the pool is idle.
  DrainFlushReport FlushForDrain() JARVIS_EXCLUDES(mutex_);

  // Releases every parked stall request (see DispatcherOptions.allow_stall).
  void ReleaseStalls() JARVIS_EXCLUDES(mutex_);
  // Stall requests currently parked on workers (the bench polls this to
  // make its overload sweep deterministic).
  std::size_t stalled_now() const JARVIS_EXCLUDES(mutex_);

  // Buffered ingested events for one tenant (tests).
  std::size_t ingested_events(std::size_t tenant) const
      JARVIS_EXCLUDES(mutex_);

 private:
  util::JsonObject HandlePing();
  util::JsonObject HandleHealth() JARVIS_EXCLUDES(mutex_);
  util::JsonObject HandleIngest(const util::JsonValue& body)
      JARVIS_EXCLUDES(mutex_);
  util::JsonObject HandleSuggestAction(const util::JsonValue& body);
  util::JsonObject HandleSuggestMinutes(const util::JsonValue& body);
  util::JsonObject HandleMetrics();
  util::JsonObject HandleCheckpoint(const util::JsonValue& body);
  util::JsonObject HandleShutdown() JARVIS_EXCLUDES(mutex_);
  util::JsonObject HandleStall() JARVIS_EXCLUDES(mutex_);

  // A tenant or state entry that is not an integer in int range is a
  // bad_request; a whole-number tenant outside [0, tenant_count_) is an
  // unknown_tenant.
  std::size_t ParseTenant(const util::JsonValue& body) const;
  fsm::StateVector ParseState(const util::JsonValue& body) const;

  runtime::Fleet& fleet_;          // unguarded: internally synchronized
  const DispatcherOptions options_;  // unguarded: fixed at construction
  // The serving catalog covers the tenants present when the daemon
  // started.
  const std::size_t tenant_count_;  // unguarded: fixed at construction
  mutable util::Mutex mutex_;
  std::vector<std::vector<events::Event>> ingest_ JARVIS_GUARDED_BY(mutex_);
  std::function<void()> shutdown_callback_ JARVIS_GUARDED_BY(mutex_);
  bool shutdown_fired_ JARVIS_GUARDED_BY(mutex_) = false;
  std::size_t stalled_ JARVIS_GUARDED_BY(mutex_) = 0;
  bool stalls_released_ JARVIS_GUARDED_BY(mutex_) = false;
  util::CondVar stall_gate_;
  // Instrument pointers wired once in the constructor; the instruments are
  // internally synchronized atomics.
  std::vector<obs::Counter*> request_counters_;  // unguarded: wired in ctor
  std::vector<obs::Histogram*> handle_timers_;   // unguarded: wired in ctor
  obs::Counter* responses_ok_ = nullptr;         // unguarded: wired in ctor
  obs::Counter* responses_error_ = nullptr;      // unguarded: wired in ctor
};

}  // namespace jarvis::serve
