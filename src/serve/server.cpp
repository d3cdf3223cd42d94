#include "serve/server.h"

#include "serve/protocol.h"

namespace jarvis::serve {

Server::Server(Dispatcher& dispatcher, obs::Registry* registry)
    : dispatcher_(dispatcher) {
  if (registry != nullptr) {
    accepted_ = registry->GetCounter("serve.accepted");
    draining_refused_ = registry->GetCounter("serve.draining_refused");
    malformed_frames_ = registry->GetCounter("serve.malformed_frames");
    bad_requests_ = registry->GetCounter("serve.bad_requests");
    responses_dropped_ = registry->GetCounter("serve.responses_dropped");
    e2e_timer_ = registry->GetTimerUs("serve.e2e_us");
  }
}

void Server::Write(FramedTransport& transport, const std::string& payload) {
  if (!transport.WritePayload(payload) && responses_dropped_ != nullptr) {
    responses_dropped_->Increment();
  }
}

void Server::WriteError(FramedTransport& transport, std::int64_t id,
                        const char* code, const std::string& detail) {
  Write(transport, MakeErrorResponse(id, code, detail));
}

ConnectionStats Server::Serve(FramedTransport& transport) {
  ConnectionStats stats;
  std::string payload;
  for (;;) {
    const FramedTransport::ReadResult result = transport.ReadPayload(&payload);
    if (result == FramedTransport::ReadResult::kClosed) break;

    if (result == FramedTransport::ReadResult::kMalformed) {
      // One desync episode → one error response + one counter; the decoder
      // has already resynced, so the next well-formed frame serves fine.
      ++stats.malformed_frames;
      if (malformed_frames_ != nullptr) malformed_frames_->Increment();
      WriteError(transport, 0, kErrMalformedFrame, payload);
      continue;
    }

    std::string parse_error;
    std::int64_t parsed_id = 0;
    const auto request = ParseRequest(payload, &parse_error, &parsed_id);
    if (!request.has_value()) {
      ++stats.bad_requests;
      if (bad_requests_ != nullptr) bad_requests_->Increment();
      WriteError(transport, parsed_id, kErrBadRequest, parse_error);
      continue;
    }

    if (draining()) {
      // Refused explicitly, never silently dropped: a draining daemon
      // still answers, it just answers "draining".
      ++stats.draining_refused;
      if (draining_refused_ != nullptr) draining_refused_->Increment();
      WriteError(transport, request->id, kErrDraining, "daemon is draining");
      continue;
    }

    ++stats.accepted;
    if (accepted_ != nullptr) accepted_->Increment();
    obs::ScopedTimer timer(e2e_timer_);
    Write(transport, dispatcher_.Dispatch(*request));
  }
  return stats;
}

DrainFlushReport Server::Drain() {
  RequestDrain();
  return dispatcher_.FlushForDrain();
}

}  // namespace jarvis::serve
