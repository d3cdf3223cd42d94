// The serving loop: admission control + connection I/O around a Dispatcher.
//
// One Server owns a bounded runtime::ThreadPool. Serve(transport) is the
// per-connection read loop: it parses each frame's envelope, then admits
// the request with ThreadPool::TrySubmit — a full queue means an explicit
// `overloaded` error response NOW, never an unbounded backlog (ISSUE
// admission-control requirement). Workers run Dispatcher::Dispatch and
// write the response themselves, so responses may complete out of order;
// the echoed request id is the client's correlation key.
//
// Every frame gets exactly one outcome, which is what the drain test pins:
//   malformed frame   → one malformed_frame error response + one counter
//   unparseable req   → one bad_request error response
//   draining          → one draining error response (refused, not dropped)
//   queue full        → one overloaded error response
//   admitted          → the handler's response (written by the worker)
//
// Graceful drain (DESIGN.md §15): a shutdown request (or the owner calling
// RequestDrain, e.g. on SIGINT) flips draining(). The accept loop stops
// taking connections, serve loops refuse NEW payloads, and Drain() waits
// for every admitted request to finish (pool WaitIdle), then flushes
// durable state via Dispatcher::FlushForDrain. Exit 0 follows.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "serve/dispatcher.h"
#include "serve/transport.h"

namespace jarvis::serve {

struct ServerConfig {
  // Handler workers. Suggestions for one tenant serialize inside the
  // Dispatcher, so extra workers pay off with many tenants or mixed
  // request types, not for one hot tenant.
  std::size_t workers = 2;
  // Admission bound: requests in flight beyond workers. TrySubmit rejects
  // past this — the overload knob the bench sweeps.
  std::size_t queue_capacity = 8;
};

// Per-connection outcome counts, returned by Serve (the smoke test's
// ground truth for one connection).
struct ConnectionStats {
  std::size_t accepted = 0;          // admitted to the pool
  std::size_t rejected_overload = 0; // refused: queue full
  std::size_t draining_refused = 0;  // refused: drain in progress
  std::size_t malformed_frames = 0;  // framing-level episodes
  std::size_t bad_requests = 0;      // framed fine, not a valid request
};

class Server {
 public:
  // `dispatcher` must outlive the server. A non-null `registry` wires the
  // serve.* admission counters and the end-to-end latency timer.
  Server(Dispatcher& dispatcher, ServerConfig config,
         obs::Registry* registry);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Reads frames from `transport` until the peer closes, admitting each
  // request per the header table. Responses are written by pool workers
  // (out of order; the id correlates) — but Serve returns only after every
  // task it admitted has finished, so the caller may destroy the transport
  // the moment Serve is back. Safe to call from several accept threads
  // with distinct transports.
  ConnectionStats Serve(FramedTransport& transport);

  // Flips the drain flag (idempotent). Wired as the Dispatcher's shutdown
  // callback; owners also call it directly on SIGINT.
  void RequestDrain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // Completes the drain: waits until every admitted request has executed
  // (and therefore written its response), then syncs the ingest logs and
  // writes checkpoints through the Dispatcher. Call after the accept loop
  // has stopped handing new transports to Serve.
  DrainFlushReport Drain();

  runtime::ThreadPool& pool() { return pool_; }

 private:
  // Answers `request` on `transport` inline (admission refusals and decode
  // errors — cheap, no pool round trip).
  void WriteErrorNow(FramedTransport& transport, std::int64_t id,
                     const char* code, const std::string& detail);

  Dispatcher& dispatcher_;     // unguarded: internally synchronized
  const ServerConfig config_;  // unguarded: fixed at construction
  std::atomic<bool> draining_{false};  // unguarded: atomic
  runtime::ThreadPool pool_;   // unguarded: internally synchronized
  // Instrument pointers wired once in the constructor; instruments are
  // internally synchronized atomics.
  obs::Counter* accepted_ = nullptr;           // unguarded: wired in ctor
  obs::Counter* rejected_overload_ = nullptr;  // unguarded: wired in ctor
  obs::Counter* draining_refused_ = nullptr;   // unguarded: wired in ctor
  obs::Counter* malformed_frames_ = nullptr;   // unguarded: wired in ctor
  obs::Counter* bad_requests_ = nullptr;       // unguarded: wired in ctor
  obs::Counter* responses_dropped_ = nullptr;  // unguarded: wired in ctor
  obs::Histogram* e2e_timer_ = nullptr;        // unguarded: wired in ctor
};

}  // namespace jarvis::serve
