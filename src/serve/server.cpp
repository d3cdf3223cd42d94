#include "serve/server.h"

#include <chrono>
#include <utility>

#include "serve/protocol.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace jarvis::serve {

namespace {

// Tracks this connection's tasks still running on the pool. Lives on
// Serve's stack: Serve blocks on AwaitZero before returning, which is what
// makes the workers' captured transport reference safe.
struct Inflight {
  util::Mutex mutex;
  util::CondVar zero;
  std::size_t pending JARVIS_GUARDED_BY(mutex) = 0;

  void Add() JARVIS_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    ++pending;
  }
  void Remove() JARVIS_EXCLUDES(mutex) {
    // Signal WHILE holding the mutex: this object lives on Serve's stack,
    // and AwaitZero's waiter destroys it as soon as it re-acquires and
    // sees pending == 0. Signaling after the unlock leaves a window where
    // the notify touches a destroyed condvar; under the lock, the notify
    // completes before the waiter can get past its re-acquire.
    util::MutexLock lock(mutex);
    --pending;
    zero.Signal();
  }
  void AwaitZero() JARVIS_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    while (pending > 0) {
      zero.Wait(mutex);
    }
  }
};

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Server::Server(Dispatcher& dispatcher, ServerConfig config,
               obs::Registry* registry)
    : dispatcher_(dispatcher),
      config_(config),
      pool_(config.workers, config.queue_capacity, registry) {
  if (registry != nullptr) {
    accepted_ = registry->GetCounter("serve.accepted");
    rejected_overload_ = registry->GetCounter("serve.rejected_overload");
    draining_refused_ = registry->GetCounter("serve.draining_refused");
    malformed_frames_ = registry->GetCounter("serve.malformed_frames");
    bad_requests_ = registry->GetCounter("serve.bad_requests");
    responses_dropped_ = registry->GetCounter("serve.responses_dropped");
    e2e_timer_ = registry->GetTimerUs("serve.e2e_us");
  }
  dispatcher_.SetShutdownCallback([this] { RequestDrain(); });
}

Server::~Server() { pool_.Shutdown(); }

void Server::WriteErrorNow(FramedTransport& transport, std::int64_t id,
                           const char* code, const std::string& detail) {
  if (!transport.WritePayload(MakeErrorResponse(id, code, detail)) &&
      responses_dropped_ != nullptr) {
    responses_dropped_->Increment();
  }
}

ConnectionStats Server::Serve(FramedTransport& transport) {
  ConnectionStats stats;
  Inflight inflight;
  std::string payload;
  for (;;) {
    const FramedTransport::ReadResult result = transport.ReadPayload(&payload);
    if (result == FramedTransport::ReadResult::kClosed) break;

    if (result == FramedTransport::ReadResult::kMalformed) {
      // One desync episode → one error response + one counter; the decoder
      // has already resynced, so the next well-formed frame serves fine.
      ++stats.malformed_frames;
      if (malformed_frames_ != nullptr) malformed_frames_->Increment();
      WriteErrorNow(transport, 0, kErrMalformedFrame, payload);
      continue;
    }

    std::string parse_error;
    std::int64_t parsed_id = 0;
    auto request = ParseRequest(payload, &parse_error, &parsed_id);
    if (!request.has_value()) {
      ++stats.bad_requests;
      if (bad_requests_ != nullptr) bad_requests_->Increment();
      WriteErrorNow(transport, parsed_id, kErrBadRequest, parse_error);
      continue;
    }

    if (draining()) {
      // Refused explicitly, never silently dropped: a draining daemon
      // still answers, it just answers "draining".
      ++stats.draining_refused;
      if (draining_refused_ != nullptr) draining_refused_->Increment();
      WriteErrorNow(transport, request->id, kErrDraining,
                    "daemon is draining");
      continue;
    }

    const auto start = std::chrono::steady_clock::now();
    const std::int64_t request_id = request->id;  // survives the move below
    inflight.Add();
    const bool admitted = pool_.TrySubmit(
        [this, &transport, &inflight, start,
         request = std::move(*request)]() {
          const std::string response = dispatcher_.Dispatch(request);
          bool written = false;
          try {
            written = transport.WritePayload(response);
          } catch (...) {
            // An unframeable response (e.g. oversized) must not reach the
            // pool's exception backstop with the inflight count held.
          }
          if (!written && responses_dropped_ != nullptr) {
            responses_dropped_->Increment();
          }
          if (e2e_timer_ != nullptr) e2e_timer_->Observe(MicrosSince(start));
          inflight.Remove();
        });
    if (admitted) {
      ++stats.accepted;
      if (accepted_ != nullptr) accepted_->Increment();
    } else {
      inflight.Remove();
      ++stats.rejected_overload;
      if (rejected_overload_ != nullptr) rejected_overload_->Increment();
      WriteErrorNow(transport, request_id, kErrOverloaded,
                    "request queue is full");
    }
  }
  inflight.AwaitZero();
  return stats;
}

DrainFlushReport Server::Drain() {
  RequestDrain();
  pool_.WaitIdle();
  return dispatcher_.FlushForDrain();
}

}  // namespace jarvis::serve
