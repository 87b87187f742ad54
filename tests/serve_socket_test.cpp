// The `bsr serve` AF_UNIX daemon end to end: boot a real server on a
// scratch socket, drive it with the client leg, and exercise the paths the
// loopback tests cannot — cached repeats over the wire, bounded-queue
// overload with a structured refusal, the line-length and nesting caps,
// graceful shutdown that drains every accepted connection before exiting,
// and the socket-path claim that replaces only a stale socket.
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "serve/json.h"
#include "serve/server.h"
#include "util/errors.h"

namespace {

using namespace bsr;

constexpr const char* kLintStaticAlg1 =
    R"({"mode":"lint","protocols":["alg1"],"lint_mode":"static"})";

std::string scratch_socket(const char* tag) {
  return "serve_test_" + std::string(tag) + "_" + std::to_string(getpid()) +
         ".sock";
}

bool socket_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Boots run_server on a background thread and waits until the socket is
/// accepting. The daemon exits via a `shutdown` request.
class Daemon {
 public:
  explicit Daemon(serve::ServerOptions opts)
      : opts_(std::move(opts)), thread_([this] {
          exit_code_ = serve::run_server(opts_, log_);
        }) {
    for (int i = 0; i < 200 && !socket_exists(opts_.socket_path); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  ~Daemon() {
    if (thread_.joinable()) {
      try {
        (void)serve::client_roundtrip(opts_.socket_path,
                                      R"({"mode":"shutdown"})");
      } catch (const std::exception&) {
        // already shut down by the test body
      }
      thread_.join();
    }
  }

  [[nodiscard]] const std::string& socket() const {
    return opts_.socket_path;
  }
  [[nodiscard]] int join() {
    thread_.join();
    return exit_code_;
  }

 private:
  serve::ServerOptions opts_;
  std::ostringstream log_;
  int exit_code_ = -1;
  std::thread thread_;
};

serve::Json parse_line(const std::string& line) {
  return serve::Json::parse(line);
}

/// Runs a daemon that is expected to refuse its socket path at startup, and
/// returns the refusal's message ("" if it started and exited instead).
std::string startup_refusal(const serve::ServerOptions& opts) {
  std::ostringstream log;
  try {
    (void)serve::run_server(opts, log);
  } catch (const UsageError& e) {
    EXPECT_EQ(log.str(), "") << "refused after announcing the socket";
    return e.what();
  }
  return "";
}

TEST(ServeSocket, RoundtripThenCachedRepeat) {
  serve::ServerOptions opts;
  opts.socket_path = scratch_socket("roundtrip");
  Daemon daemon(opts);

  const std::string cold =
      serve::client_roundtrip(daemon.socket(), kLintStaticAlg1);
  const serve::Json c = parse_line(cold);
  EXPECT_TRUE(c.bool_or("ok", false)) << cold;
  EXPECT_FALSE(c.bool_or("cached", true));
  EXPECT_EQ(c.num_or("exit", -1), 0);

  const std::string warm =
      serve::client_roundtrip(daemon.socket(), kLintStaticAlg1);
  const serve::Json w = parse_line(warm);
  EXPECT_TRUE(w.bool_or("cached", false)) << warm;
  // Byte identity over the wire, modulo the documented `cached` flag.
  std::string recolored = cold;
  const std::size_t at = recolored.find("\"cached\":false");
  ASSERT_NE(at, std::string::npos);
  recolored.replace(at, 14, "\"cached\":true");
  EXPECT_EQ(recolored, warm);
}

TEST(ServeSocket, BatchedRequestOverTheWire) {
  serve::ServerOptions opts;
  opts.socket_path = scratch_socket("batch");
  Daemon daemon(opts);

  const std::string resp = serve::client_roundtrip(
      daemon.socket(), std::string("{\"batch\":[") + kLintStaticAlg1 + "," +
                           kLintStaticAlg1 + "]}");
  const serve::Json r = parse_line(resp);
  ASSERT_TRUE(r.bool_or("ok", false)) << resp;
  const serve::Json* batch = r.get("batch");
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->array().size(), 2u);
  EXPECT_FALSE(batch->array()[0].bool_or("cached", true));
  EXPECT_TRUE(batch->array()[1].bool_or("cached", false));
}

TEST(ServeSocket, FullQueueAnswersOverloadedImmediately) {
  serve::ServerOptions opts;
  opts.socket_path = scratch_socket("overload");
  opts.workers = 1;
  opts.queue = 1;
  Daemon daemon(opts);

  // Occupy the single worker, then the single queue slot, with sleep
  // requests (the dispatch table's test aid for exactly this path). The
  // sleepers are jthreads that catch their own errors, so a failure on any
  // path is reported after both are joined instead of aborting the binary.
  const auto sleeper = [&daemon](const char* request) {
    return std::jthread([&daemon, request] {
      try {
        (void)serve::client_roundtrip(daemon.socket(), request);
      } catch (const std::exception& e) {
        ADD_FAILURE() << request << ": " << e.what();
      }
    });
  };
  const std::jthread busy = sleeper(R"({"mode":"sleep","ms":1200})");
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::jthread queued = sleeper(R"({"mode":"sleep","ms":10})");
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Worker busy, queue full: the acceptor must refuse with a structured
  // envelope right away rather than letting the client hang.
  const auto t0 = std::chrono::steady_clock::now();
  const std::string refusal =
      serve::client_roundtrip(daemon.socket(), R"({"mode":"stats"})");
  const auto waited = std::chrono::steady_clock::now() - t0;
  const serve::Json r = parse_line(refusal);
  EXPECT_FALSE(r.bool_or("ok", true)) << refusal;
  EXPECT_EQ(r.str_or("error", ""), "overloaded");
  EXPECT_LT(std::chrono::duration<double>(waited).count(), 1.0);
}

// The refusal path writes its envelope and closes without reading the
// request. A request larger than the socket buffer cannot be sent in full,
// so the client's send fails, with the refusal already waiting in its
// receive buffer: the client must return that line, not report the send.
// A stand-in listener plays the daemon, so the race is decided every time.
TEST(ServeSocket, RefusalClosingUnreadStillReachesTheClient) {
  const std::string path = scratch_socket("refuse_unread");
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  int sndbuf = 0;
  socklen_t len = sizeof(sndbuf);
  ASSERT_EQ(::getsockopt(listener, SOL_SOCKET, SO_SNDBUF, &sndbuf, &len), 0);
  const std::string big = R"({"mode":"stats","pad":")" +
                          std::string(8 * static_cast<std::size_t>(sndbuf) +
                                          (std::size_t{1} << 20),
                                      'x') +
                          "\"}";
  const std::string refusal =
      R"({"ok":false,"error":"overloaded","message":"request queue full; retry later"})";
  std::jthread stand_in([listener, &refusal] {
    pollfd pfd{listener, POLLIN, 0};
    if (::poll(&pfd, 1, /*timeout_ms=*/10'000) <= 0) return;
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    const std::string line = refusal + "\n";
    (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
    ::close(fd);
  });

  std::string got;
  EXPECT_NO_THROW(got = serve::client_roundtrip(path, big));
  EXPECT_EQ(got, refusal);
  stand_in.join();
  ::close(listener);
  ::unlink(path.c_str());
}

TEST(ServeSocket, DeepNestingIsRefusedAndTheDaemonSurvives) {
  serve::ServerOptions opts;
  opts.socket_path = scratch_socket("deep");
  Daemon daemon(opts);

  const serve::Json r = parse_line(
      serve::client_roundtrip(daemon.socket(), std::string(1'000'000, '[')));
  EXPECT_EQ(r.str_or("error", ""), "usage");
  const std::string stats =
      serve::client_roundtrip(daemon.socket(), R"({"mode":"stats"})");
  EXPECT_TRUE(parse_line(stats).bool_or("ok", false)) << stats;
}

TEST(ServeSocket, OverlongLineIsRefusedAndTheDaemonSurvives) {
  serve::ServerOptions opts;
  opts.socket_path = scratch_socket("overlong");
  Daemon daemon(opts);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, daemon.socket().c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // A daemon that waited for the newline would never answer: time out
  // instead of hanging the suite.
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  // One byte past the cap and no newline, with the connection left open:
  // the daemon must answer as soon as the cap is crossed, then hang up.
  const std::string line(serve::kMaxLineBytes + 1, 'x');
  for (std::size_t off = 0; off < line.size();) {
    const ssize_t n =
        ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  std::string got;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    got.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(n, 0) << "the daemon kept the connection open";
  ::close(fd);

  ASSERT_EQ(std::count(got.begin(), got.end(), '\n'), 1) << got;
  const serve::Json r = parse_line(got.substr(0, got.size() - 1));
  EXPECT_EQ(r.str_or("error", ""), "usage");
  EXPECT_NE(r.str_or("message", "").find("request line longer than"),
            std::string::npos);

  const std::string stats =
      serve::client_roundtrip(daemon.socket(), R"({"mode":"stats"})");
  EXPECT_TRUE(parse_line(stats).bool_or("ok", false)) << stats;
}

TEST(ServeSocket, RegularFileAtTheSocketPathIsRefusedAndKept) {
  serve::ServerOptions opts;
  opts.socket_path = scratch_socket("victim");
  std::ofstream(opts.socket_path) << "precious\n";

  EXPECT_NE(startup_refusal(opts).find("is not a socket"), std::string::npos);
  std::ifstream in(opts.socket_path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "precious");
  ::unlink(opts.socket_path.c_str());
}

TEST(ServeSocket, SecondDaemonOnALivePathIsRefused) {
  serve::ServerOptions opts;
  opts.socket_path = scratch_socket("live");
  Daemon first(opts);

  EXPECT_NE(startup_refusal(opts).find("already listening"),
            std::string::npos);
  // The first daemon keeps its path and still answers.
  const std::string resp =
      serve::client_roundtrip(first.socket(), R"({"mode":"stats"})");
  EXPECT_TRUE(parse_line(resp).bool_or("ok", false)) << resp;
}

TEST(ServeSocket, StaleSocketIsReplaced) {
  // A socket bound and closed without a listener is what a crashed daemon
  // leaves behind: connecting to it is refused, so the path is reclaimed.
  serve::ServerOptions opts;
  opts.socket_path = scratch_socket("stale");
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);
  }
  ASSERT_TRUE(socket_exists(opts.socket_path));

  Daemon daemon(opts);
  // The stale file already exists, so wait for the daemon itself to answer.
  std::string resp;
  for (int i = 0; i < 200 && resp.empty(); ++i) {
    try {
      resp = serve::client_roundtrip(daemon.socket(), R"({"mode":"stats"})");
    } catch (const UsageError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(parse_line(resp).bool_or("ok", false)) << resp;
}

TEST(ServeSocket, ShutdownDrainsAndUnlinksTheSocket) {
  serve::ServerOptions opts;
  opts.socket_path = scratch_socket("shutdown");
  Daemon daemon(opts);

  const std::string resp =
      serve::client_roundtrip(daemon.socket(), R"({"mode":"shutdown"})");
  EXPECT_NE(resp.find("\"stopping\":true"), std::string::npos);
  EXPECT_EQ(daemon.join(), 0);
  EXPECT_FALSE(socket_exists(daemon.socket()));
}

}  // namespace
