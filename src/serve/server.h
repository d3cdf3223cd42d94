// The serving loop: connection I/O and request decoding around a
// Dispatcher.
//
// Serve(transport) is the per-connection loop: it reads one frame, parses
// its envelope, runs Dispatcher::Dispatch and writes the response, all on
// the calling thread, before it reads the next frame. So responses on one
// connection come back in request order, and the socket is the
// backpressure: a connection never holds more than one frame plus one read
// chunk in the daemon. Serving concurrency is one thread per connection;
// Dispatch is thread-safe.
//
// Every frame gets exactly one outcome, which is what the drain test pins:
//   malformed frame   → one malformed_frame error response + one counter
//   unparseable req   → one bad_request error response
//   draining          → one draining error response (refused, not dropped)
//   otherwise         → the handler's response
//
// Graceful drain (DESIGN.md §15): a shutdown request (or the owner calling
// RequestDrain, e.g. on SIGINT) sets the Dispatcher's drain flag. The
// accept loop stops taking connections, serve loops refuse NEW payloads,
// and once every Serve has returned, Drain() flushes durable state via
// Dispatcher::FlushForDrain. Exit 0 follows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "serve/dispatcher.h"
#include "serve/transport.h"

namespace jarvis::serve {

// Per-connection outcome counts, returned by Serve (the smoke test's
// ground truth for one connection).
struct ConnectionStats {
  std::size_t accepted = 0;          // dispatched to a handler
  std::size_t draining_refused = 0;  // refused: drain in progress
  std::size_t malformed_frames = 0;  // framing-level episodes
  std::size_t bad_requests = 0;      // framed fine, not a valid request
};

class Server {
 public:
  // `dispatcher` must outlive the server. A non-null `registry` wires the
  // serve.* outcome counters and the end-to-end latency timer.
  Server(Dispatcher& dispatcher, obs::Registry* registry);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Reads and answers frames from `transport`, one at a time, until the
  // peer closes. Safe to call from several threads with distinct
  // transports.
  ConnectionStats Serve(FramedTransport& transport);

  // Sets the Dispatcher's drain flag (idempotent); owners call it on
  // SIGINT, and a shutdown request sets the same flag.
  void RequestDrain() { dispatcher_.RequestDrain(); }
  bool draining() const { return dispatcher_.draining(); }

  // Completes the drain: sets the flag, then syncs the ingest logs and
  // writes checkpoints through the Dispatcher. Call after every Serve has
  // returned.
  DrainFlushReport Drain();

 private:
  // Writes `payload`, counting a response the peer did not take.
  void Write(FramedTransport& transport, const std::string& payload);
  void WriteError(FramedTransport& transport, std::int64_t id,
                  const char* code, const std::string& detail);

  Dispatcher& dispatcher_;  // unguarded: internally synchronized
  // Instrument pointers wired once in the constructor; instruments are
  // internally synchronized atomics.
  obs::Counter* accepted_ = nullptr;           // unguarded: wired in ctor
  obs::Counter* draining_refused_ = nullptr;   // unguarded: wired in ctor
  obs::Counter* malformed_frames_ = nullptr;   // unguarded: wired in ctor
  obs::Counter* bad_requests_ = nullptr;       // unguarded: wired in ctor
  obs::Counter* responses_dropped_ = nullptr;  // unguarded: wired in ctor
  obs::Histogram* e2e_timer_ = nullptr;        // unguarded: wired in ctor
};

}  // namespace jarvis::serve
