// The `bsr serve` transport: an AF_UNIX stream daemon over a Service.
//
// Wire protocol: newline-delimited JSON, one request object per line (at
// most kMaxLineBytes), one response object per line, in order, over a
// connection the client closes when done. Accepted connections queue onto a
// bounded ring drained by a worker pool; when the queue is full the acceptor
// answers immediately with a structured `overloaded` envelope and closes —
// clients never hang on a busy daemon (docs/SERVE.md "Backpressure").
//
// Shutdown (a `shutdown` request, SIGINT, or SIGTERM) is graceful: stop
// accepting, drain every queued and in-flight connection, join the workers,
// unlink the socket.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "serve/service.h"

namespace bsr::serve {

/// Longest request line the daemon buffers, in bytes. The largest valid
/// request, a 256-element batch of lint requests that each name all 21
/// registry specs, is 105 KiB of compact JSON; the cap leaves ten times
/// that for whitespace and a growing registry. A longer line gets one
/// `usage` envelope and the connection is closed, so one client cannot
/// grow the daemon's memory without bound.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

struct ServerOptions {
  std::string socket_path = "bsr.sock";
  int workers = 2;            ///< Worker threads draining the queue.
  std::size_t queue = 16;     ///< Accepted-connection queue bound.
  ServiceOptions service;
};

/// Runs the daemon until shutdown; returns 0 on clean exit. Writes a
/// one-line "listening" banner to `log` once the socket is bound (tests and
/// scripts wait for it before connecting). Throws UsageError when the
/// socket cannot be bound.
int run_server(const ServerOptions& opts, std::ostream& log);

/// Client leg: connects to `socket_path`, sends `request` as one line, and
/// returns the daemon's response line (without the trailing newline). A
/// line the daemon wrote before hanging up (the `overloaded` refusal) is
/// returned even when the send failed. Throws UsageError on connect/IO
/// failure when no response line arrives.
std::string client_roundtrip(const std::string& socket_path,
                             const std::string& request);

}  // namespace bsr::serve
