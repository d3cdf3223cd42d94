// The daemon's TCP byte path over real loopback sockets: TcpListener,
// ConnectTcp and FdTransport. serve_frame_test pins the decoder on
// in-memory bytes; here the same hostile inputs arrive through the kernel,
// cut wherever the socket cuts them, from a raw client socket that writes
// bytes the framed transport never would. The FdTransport cases at the end
// interrupt a blocked pipe read or write with a signal (EINTR).
#include "serve/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/frame.h"

namespace jarvis::serve {
namespace {

using ReadResult = FramedTransport::ReadResult;

constexpr int kAcceptTimeoutMs = 5000;

// A plain client socket connected to 127.0.0.1:port.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<::sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    const int nodelay = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  }
  ~RawClient() { Close(); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  bool connected() const { return connected_; }

  bool Write(const std::string& bytes) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ::ssize_t n =
          ::write(fd_, bytes.data() + written, bytes.size() - written);
      if (n <= 0) return false;
      written += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Closes with an RST instead of a FIN (zero linger).
  void Reset() {
    const ::linger abort{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
    Close();
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
  bool connected_ = false;
};

struct Read {
  ReadResult result;
  std::string data;
};

Read ReadOne(FramedTransport& transport) {
  Read read{ReadResult::kClosed, ""};
  read.result = transport.ReadPayload(&read.data);
  return read;
}

TEST(TcpTransport, FramedRoundTripBothWays) {
  TcpListener listener(0);
  ASSERT_NE(listener.port(), 0);
  std::string error;
  const auto client = ConnectTcp("127.0.0.1", listener.port(), &error);
  ASSERT_NE(client, nullptr) << error;
  const auto server = listener.Accept(kAcceptTimeoutMs);
  ASSERT_NE(server, nullptr);

  ASSERT_TRUE(client->WritePayload("ping"));
  Read read = ReadOne(*server);
  EXPECT_EQ(read.result, ReadResult::kPayload);
  EXPECT_EQ(read.data, "ping");

  // Larger than one 64 KiB read chunk and than the socket buffers: the
  // writer blocks until the reader drains, and the reader reassembles the
  // frame across many reads.
  const std::string big(512 * 1024, 'q');
  std::thread writer(
      [&server, &big] { EXPECT_TRUE(server->WritePayload(big)); });
  read = ReadOne(*client);
  writer.join();
  EXPECT_EQ(read.result, ReadResult::kPayload);
  EXPECT_EQ(read.data, big);
  EXPECT_EQ(client->malformed_frames(), 0u);
}

TEST(TcpTransport, OneByteWritesStillDecode) {
  TcpListener listener(0);
  RawClient client(listener.port());
  ASSERT_TRUE(client.connected());
  const auto server = listener.Accept(kAcceptTimeoutMs);
  ASSERT_NE(server, nullptr);

  const std::string wire = EncodeFrame("one") + EncodeFrame("two");
  std::thread writer([&client, &wire] {
    for (char byte : wire) EXPECT_TRUE(client.Write(std::string(1, byte)));
    client.Close();
  });
  std::vector<std::string> payloads;
  for (Read read = ReadOne(*server); read.result != ReadResult::kClosed;
       read = ReadOne(*server)) {
    EXPECT_EQ(read.result, ReadResult::kPayload);
    payloads.push_back(read.data);
  }
  writer.join();
  EXPECT_EQ(payloads, (std::vector<std::string>{"one", "two"}));
  EXPECT_FALSE(server->truncated_tail());
  EXPECT_EQ(server->malformed_frames(), 0u);
}

TEST(TcpTransport, PeerClosingMidFrameIsATruncatedTail) {
  TcpListener listener(0);
  RawClient client(listener.port());
  ASSERT_TRUE(client.connected());
  const auto server = listener.Accept(kAcceptTimeoutMs);
  ASSERT_NE(server, nullptr);

  const std::string cut = EncodeFrame("cut off");
  ASSERT_TRUE(client.Write(EncodeFrame("complete") +
                           cut.substr(0, cut.size() / 2)));
  client.Close();

  Read read = ReadOne(*server);
  EXPECT_EQ(read.result, ReadResult::kPayload);
  EXPECT_EQ(read.data, "complete");
  EXPECT_EQ(ReadOne(*server).result, ReadResult::kClosed);
  EXPECT_TRUE(server->truncated_tail());
  EXPECT_EQ(server->malformed_frames(), 0u);
  // Closed stays closed.
  EXPECT_EQ(ReadOne(*server).result, ReadResult::kClosed);
}

TEST(TcpTransport, PeerResetClosesAndFailsWritesWithoutKillingUs) {
  // The daemon ignores SIGPIPE so a write to a dead peer reports false.
  std::signal(SIGPIPE, SIG_IGN);
  TcpListener listener(0);
  RawClient client(listener.port());
  ASSERT_TRUE(client.connected());
  const auto server = listener.Accept(kAcceptTimeoutMs);
  ASSERT_NE(server, nullptr);

  client.Reset();
  EXPECT_EQ(ReadOne(*server).result, ReadResult::kClosed);
  EXPECT_FALSE(server->truncated_tail());
  // The first write after an RST may still be accepted by the kernel; the
  // next one fails.
  bool written = true;
  for (int attempt = 0; attempt < 8 && written; ++attempt) {
    written = server->WritePayload("anyone there?");
  }
  EXPECT_FALSE(written);
}

TEST(TcpTransport, MalformedFramesOverASocketAreOneEpisodeEach) {
  // serve_frame_test's hostile inputs, each followed by a clean frame the
  // decoder must recover to.
  std::string garbage;
  for (int i = 0; i < 4096; ++i) {
    garbage.push_back(i % 7 == 0 ? 'J' : static_cast<char>(i * 31 + 5));
  }
  std::string oversized(kFrameMagic, sizeof(kFrameMagic));
  oversized += std::string("\xff\xff\xff\x3f", 4);  // ~1 GiB length, LE
  oversized += std::string("\0\0\0\0", 4);
  std::string corrupt = EncodeFrame("corrupt me");
  corrupt[corrupt.size() - 3] ^= 0x5a;
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"garbage run", garbage},
      {"oversized length prefix", oversized},
      {"crc mismatch", corrupt},
      {"garbage ending in half a magic", "!!!garbage!!!JV"},
  };

  TcpListener listener(0);
  RawClient client(listener.port());
  ASSERT_TRUE(client.connected());
  const auto server = listener.Accept(kAcceptTimeoutMs);
  ASSERT_NE(server, nullptr);
  std::size_t episodes = 0;
  for (const auto& [name, hostile] : cases) {
    SCOPED_TRACE(name);
    const std::string clean = std::string("after ") + name;
    ASSERT_TRUE(client.Write(hostile + EncodeFrame(clean)));
    Read read = ReadOne(*server);
    EXPECT_EQ(read.result, ReadResult::kMalformed);
    EXPECT_FALSE(read.data.empty()) << "a malformed episode carries detail";
    read = ReadOne(*server);
    EXPECT_EQ(read.result, ReadResult::kPayload);
    EXPECT_EQ(read.data, clean);
    EXPECT_EQ(server->malformed_frames(), ++episodes);
  }
  client.Close();
  EXPECT_EQ(ReadOne(*server).result, ReadResult::kClosed);
  EXPECT_FALSE(server->truncated_tail());
}

TEST(TcpTransport, AcceptTimesOutWithNull) {
  TcpListener listener(0);
  EXPECT_EQ(listener.Accept(50), nullptr);
}

TEST(TcpTransport, ConnectFailuresReturnNullWithADiagnostic) {
  std::string error;
  EXPECT_EQ(ConnectTcp("not-an-address", 1, &error), nullptr);
  EXPECT_NE(error.find("invalid IPv4 address"), std::string::npos) << error;

  std::uint16_t closed_port = 0;
  {
    TcpListener listener(0);
    closed_port = listener.port();
  }
  error.clear();
  EXPECT_EQ(ConnectTcp("127.0.0.1", closed_port, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

// SIGUSR1 with a handler installed WITHOUT SA_RESTART: a blocking read or
// write on the signalled thread fails with EINTR instead of resuming in the
// kernel. The previous action is restored on destruction.
std::atomic<int> g_interrupts{0};  // lock-free, so async-signal-safe
void CountInterrupt(int) { g_interrupts.fetch_add(1); }

class InterruptingSignal {
 public:
  InterruptingSignal() {
    struct sigaction action {};
    action.sa_handler = CountInterrupt;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    ::sigaction(SIGUSR1, &action, &previous_);
  }
  ~InterruptingSignal() { ::sigaction(SIGUSR1, &previous_, nullptr); }
  InterruptingSignal(const InterruptingSignal&) = delete;
  InterruptingSignal& operator=(const InterruptingSignal&) = delete;

  // Signals `thread` once it has had time to block in its syscall.
  static void Interrupt(std::thread& thread) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const int before = g_interrupts.load();
    if (::pthread_kill(thread.native_handle(), SIGUSR1) != 0) {
      ADD_FAILURE() << "pthread_kill failed";
      return;
    }
    while (g_interrupts.load() == before) std::this_thread::yield();
  }

 private:
  struct sigaction previous_ {};
};

TEST(FdTransport, ReadInterruptedBySignalStillReturnsTheFrame) {
  InterruptingSignal signal;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  FdTransport transport(fds[0], fds[1], /*owns_fds=*/true);  // a loop

  Read read{ReadResult::kClosed, ""};
  std::thread reader([&] { read = ReadOne(transport); });
  InterruptingSignal::Interrupt(reader);  // reader is blocked in ReadRaw
  EXPECT_TRUE(transport.WritePayload("after the signal"));
  reader.join();
  EXPECT_EQ(read.result, ReadResult::kPayload);
  EXPECT_EQ(read.data, "after the signal");
}

TEST(FdTransport, WriteInterruptedBySignalStillDeliversTheFrame) {
  InterruptingSignal signal;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  FdTransport transport(fds[0], fds[1], /*owns_fds=*/true);  // a loop

  // Fill the pipe exactly, so the next write blocks before moving a byte
  // and the signal makes it fail with EINTR rather than return short.
  const int capacity = ::fcntl(fds[1], F_GETPIPE_SZ);
  ASSERT_GT(capacity, 0);
  const std::string filler(
      static_cast<std::size_t>(capacity) - EncodeFrame("").size(), 'f');
  ASSERT_TRUE(transport.WritePayload(filler));

  bool written = false;
  std::thread writer(
      [&] { written = transport.WritePayload("after the signal"); });
  InterruptingSignal::Interrupt(writer);  // writer is blocked in WriteRaw
  EXPECT_EQ(ReadOne(transport).data, filler);  // makes room for the frame
  writer.join();
  ASSERT_TRUE(written);
  const Read read = ReadOne(transport);
  EXPECT_EQ(read.result, ReadResult::kPayload);
  EXPECT_EQ(read.data, "after the signal");
}

}  // namespace
}  // namespace jarvis::serve
