#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "util/errors.h"

namespace bsr::serve {

namespace {

// Set by the SIGINT/SIGTERM handler; the accept loop polls it alongside the
// Service's own stop flag. sig_atomic_t because handlers may not touch
// anything fancier.
volatile std::sig_atomic_t g_signalled = 0;

void on_signal(int) { g_signalled = 1; }

/// Writes all of `data` to `fd`, ignoring SIGPIPE (the peer may hang up
/// mid-response; that is its problem, not the daemon's).
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Serves one connection: reads newline-delimited requests until EOF,
/// answering each in order. A line longer than kMaxLineBytes, terminated or
/// not, ends the connection with one `usage` envelope.
void serve_connection(int fd, Service& service) {
  const auto refuse_overlong = [fd] {
    send_all(fd, error_envelope("usage", "request line longer than " +
                                             std::to_string(kMaxLineBytes) +
                                             " bytes") +
                     "\n");
    ::close(fd);
  };
  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl = 0;
    while ((nl = buf.find('\n')) != std::string::npos) {
      if (nl > kMaxLineBytes) {
        refuse_overlong();
        return;
      }
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.empty()) continue;
      if (!send_all(fd, service.handle_line(line))) {
        ::close(fd);
        return;
      }
    }
    if (buf.size() > kMaxLineBytes) {
      refuse_overlong();
      return;
    }
  }
  // Tolerate a final unterminated line: the CLI client sends exactly one.
  if (!buf.empty()) send_all(fd, service.handle_line(buf));
  ::close(fd);
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  usage_check(path.size() < sizeof(addr.sun_path),
              "socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Clears `path` for bind(). A missing path needs nothing. A socket that
/// refuses connections is a stale leftover of a crashed daemon and is
/// unlinked. Anything else is refused and left in place: a file that is
/// not a socket, or a socket a live daemon still answers on.
void claim_socket_path(const std::string& path, const sockaddr_un& addr) {
  struct stat st{};
  if (::lstat(path.c_str(), &st) != 0) {
    const int err = errno;
    usage_check(err == ENOENT,
                [&] { return "lstat(" + path + "): " + strerror(err); });
    return;
  }
  usage_check(S_ISSOCK(st.st_mode), [&] {
    return "refusing to use " + path + ": it exists and is not a socket";
  });
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  usage_check(probe >= 0, "socket(): " + std::string(strerror(errno)));
  const int rc = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  const int err = errno;
  ::close(probe);
  usage_check(rc != 0, [&] {
    return "refusing to use " + path + ": a daemon is already listening on it";
  });
  usage_check(err == ECONNREFUSED, [&] {
    return "refusing to use " + path + ": probe connect failed: " +
           strerror(err);
  });
  ::unlink(path.c_str());
}

}  // namespace

int run_server(const ServerOptions& opts, std::ostream& log) {
  usage_check(opts.workers >= 1, "--workers must be >= 1");
  usage_check(opts.queue >= 1, "--queue must be >= 1");

  const sockaddr_un addr = make_addr(opts.socket_path);
  claim_socket_path(opts.socket_path, addr);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  usage_check(listener >= 0, "socket(): " + std::string(strerror(errno)));
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string why = strerror(errno);
    ::close(listener);
    throw UsageError("bind(" + opts.socket_path + "): " + why);
  }
  if (::listen(listener, static_cast<int>(opts.queue)) != 0) {
    const std::string why = strerror(errno);
    ::close(listener);
    ::unlink(opts.socket_path.c_str());
    throw UsageError("listen(" + opts.socket_path + "): " + why);
  }

  Service service(opts.service);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> queue;  // accepted fds awaiting a worker
  bool draining = false;

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(opts.workers));
  for (int i = 0; i < opts.workers; ++i) {
    workers.emplace_back([&] {
      for (;;) {
        int fd = -1;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !queue.empty() || draining; });
          if (queue.empty()) return;  // draining and nothing left
          fd = queue.front();
          queue.pop_front();
        }
        serve_connection(fd, service);
      }
    });
  }

  g_signalled = 0;
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  struct sigaction old_int{};
  struct sigaction old_term{};
  ::sigaction(SIGINT, &sa, &old_int);
  ::sigaction(SIGTERM, &sa, &old_term);

  log << "bsr serve: listening on " << opts.socket_path << " (workers="
      << opts.workers << ", queue=" << opts.queue << ")\n"
      << std::flush;

  // Accept loop: poll with a short timeout so the stop flags are noticed
  // promptly even when no client ever connects.
  pollfd pfd{listener, POLLIN, 0};
  while (g_signalled == 0 && !service.stopping()) {
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) continue;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (queue.size() < opts.queue) {
        queue.push_back(fd);
        cv.notify_one();
        continue;
      }
    }
    // Queue full: structured refusal, then close. The client maps this to
    // exit 3 and may retry with backoff.
    send_all(fd, error_envelope("overloaded",
                                "request queue full; retry later") +
                     "\n");
    ::close(fd);
  }

  // Graceful drain: no new connections, finish everything accepted.
  ::close(listener);
  {
    const std::lock_guard<std::mutex> lock(mu);
    draining = true;
  }
  cv.notify_all();
  for (std::thread& w : workers) w.join();
  ::unlink(opts.socket_path.c_str());
  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGTERM, &old_term, nullptr);
  log << "bsr serve: drained, bye\n" << std::flush;
  return 0;
}

std::string client_roundtrip(const std::string& socket_path,
                             const std::string& request) {
  const sockaddr_un addr = make_addr(socket_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  usage_check(fd >= 0, "socket(): " + std::string(strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw UsageError("connect(" + socket_path + "): " + why +
                     " (is `bsr serve` running?)");
  }
  std::string line = request;
  if (line.empty() || line.back() != '\n') line += '\n';
  // A daemon whose queue is full writes its `overloaded` envelope and
  // closes without reading, so a send can fail with the refusal already in
  // the receive buffer. Read a response either way; the failed send is the
  // error only when none arrives.
  const bool sent = send_all(fd, line);
  ::shutdown(fd, SHUT_WR);  // one request per connection from the CLI
  std::string resp;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    resp.append(chunk, static_cast<std::size_t>(n));
    if (resp.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  const std::size_t nl = resp.find('\n');
  if (nl == std::string::npos) {
    usage_check(sent, "send(" + socket_path + ") failed");
    throw UsageError("daemon closed the connection without a response");
  }
  return resp.substr(0, nl);
}

}  // namespace bsr::serve
