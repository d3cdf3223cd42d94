// Transports for the serving daemon: framing + byte I/O, NOTHING else.
//
// The strict transport/handler split (DESIGN.md §15): a FramedTransport
// moves verified frame payloads in and out of a byte stream; it never
// looks inside a payload. Request decoding, Fleet calls, and response
// encoding belong to serve::Dispatcher, which is why every handler is
// unit-testable with no sockets in sight.
//
// This header pair is the ONLY src/ location allowed to perform raw
// socket/fd I/O (tools/lint.py rule 11; util/io.* keeps its rule-10 role
// as the durable-write layer). Everything above it — Server, Dispatcher,
// the handlers — speaks FramedTransport.
//
// Concurrency: one connection has ONE reader (the serve loop calling
// ReadPayload). Writers may be several threads (the Server writes from
// its reader thread; a test or client may write while another thread
// reads), so the write path is serialized under write_mutex_ and a frame
// is always written whole — interleaved partial frames from two writers
// would be self-inflicted corruption. The read path owns the decoder
// without a lock by the single-reader contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "serve/frame.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace jarvis::serve {

class FramedTransport {
 public:
  enum class ReadResult {
    kPayload,    // one CRC-verified payload delivered
    kMalformed,  // one malformed-frame episode (detail delivered)
    kClosed,     // stream ended (EOF or read error); no more payloads
  };

  virtual ~FramedTransport() = default;

  // Blocks until the next frame event or stream end. Single reader only.
  ReadResult ReadPayload(std::string* payload_or_detail);

  // Frames and writes `payload` atomically with respect to other writers.
  // False when the peer is gone (connection drop mid-response) — callers
  // count the dropped response and carry on; a dead peer must never kill
  // the daemon.
  bool WritePayload(const std::string& payload) JARVIS_EXCLUDES(write_mutex_);

  // Total malformed episodes the decoder has seen on this connection.
  std::size_t malformed_frames() const { return decoder_.malformed_frames(); }
  // True when the stream closed mid-frame (truncated tail).
  bool truncated_tail() const {
    return closed_ && decoder_.pending_bytes() > 0;
  }

 protected:
  // Raw byte layer implemented by concrete transports. ReadRaw blocks for
  // at least one byte; returns 0 on EOF and -1 on error. WriteRaw writes
  // the whole buffer or reports failure.
  virtual std::ptrdiff_t ReadRaw(char* buffer, std::size_t capacity) = 0;
  virtual bool WriteRaw(const char* data, std::size_t size) = 0;

 private:
  FrameDecoder decoder_;  // unguarded: single-reader contract (see above)
  bool closed_ = false;   // unguarded: written/read by the single reader
  util::Mutex write_mutex_;
};

// Transport over a pair of file descriptors (stdio: 0/1; a socket: fd/fd).
// With `owns_fds`, the descriptors are closed on destruction (dup'd fds or
// an accepted socket); stdio passes false.
class FdTransport : public FramedTransport {
 public:
  FdTransport(int read_fd, int write_fd, bool owns_fds);
  ~FdTransport() override;

  FdTransport(const FdTransport&) = delete;
  FdTransport& operator=(const FdTransport&) = delete;

 protected:
  std::ptrdiff_t ReadRaw(char* buffer, std::size_t capacity) override;
  bool WriteRaw(const char* data, std::size_t size) override;

 private:
  const int read_fd_;
  const int write_fd_;
  const bool owns_fds_;
};

// In-memory bidirectional pipe: two FramedTransport endpoints joined by
// byte queues. The test/bench transport — hostile-input suites write raw
// garbage with WriteRawBytes, drain tests run real concurrency through it,
// and no kernel object is involved, so it also runs under TSan cheaply.
class LoopbackTransport;
struct LoopbackPair {
  std::unique_ptr<LoopbackTransport> client;
  std::unique_ptr<LoopbackTransport> server;
};
LoopbackPair MakeLoopbackPair();

class LoopbackTransport : public FramedTransport {
 public:
  ~LoopbackTransport() override;

  // Closes this endpoint's outbound direction: the peer's reader sees EOF
  // once it drains what was already written (a client hanging up).
  void CloseWrite();

  // Injects raw UNFRAMED bytes into the peer's read stream — the hostile
  // byte-level seam frame tests use (WritePayload is the honest path).
  void WriteRawBytes(const std::string& bytes);

 protected:
  std::ptrdiff_t ReadRaw(char* buffer, std::size_t capacity) override;
  bool WriteRaw(const char* data, std::size_t size) override;

 private:
  friend LoopbackPair MakeLoopbackPair();
  struct Direction;  // one byte queue + closed flag
  LoopbackTransport(std::shared_ptr<Direction> in,
                    std::shared_ptr<Direction> out)
      : in_(std::move(in)), out_(std::move(out)) {}

  std::shared_ptr<Direction> in_;   // unguarded: Direction locks itself
  std::shared_ptr<Direction> out_;  // unguarded: Direction locks itself
};

// Listening TCP socket on 127.0.0.1 (the daemon is a local serving
// endpoint; remote exposure is a deployment's reverse-proxy problem).
// Port 0 binds an ephemeral port; port() reports the real one.
class TcpListener {
 public:
  // Throws util::io::IoError when bind/listen fails.
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Waits up to `timeout_ms` for a connection; null on timeout (the accept
  // loop uses the timeout to poll its drain flag). Throws util::io::IoError
  // on a hard accept failure.
  std::unique_ptr<FramedTransport> Accept(int timeout_ms);

  std::uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
};

// Connects to a listening daemon; null (with a diagnostic in `error`) when
// the connection is refused — the client's problem to report, not throw.
std::unique_ptr<FramedTransport> ConnectTcp(const std::string& host,
                                            std::uint16_t port,
                                            std::string* error);

}  // namespace jarvis::serve
