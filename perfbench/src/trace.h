// Spans recorded by the benchmark's own code around calls into the
// library's layers. Spans live in memory and are written out when the run
// ends; a layer's self time is its span's busy time minus the busy time of
// its child spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< Since the tracer was created.
  std::int64_t end_ns = 0;
  /// Busy time: end − start, or, for an aggregate of many short calls
  /// (visitor invocations), the sum of their durations.
  std::int64_t busy_ns = 0;
  int parent = -1;      ///< Index of the enclosing span; -1 at top level.
  long request = -1;    ///< Serve request id; -1 outside serve.
  long calls = 1;       ///< Calls folded into this span (aggregates > 1).
};

class Tracer {
 public:
  Tracer();

  int open(std::string name, long request = -1);
  void close(int id);
  /// Renames a span once its outcome is known (a serve hit or miss).
  void rename(int id, std::string name);
  /// Records `calls` short calls totalling `ns` as one child of the open
  /// span, timed by the caller without a span per call.
  void aggregate(std::string name, std::int64_t ns, long calls);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  struct Totals {
    double busy_s = 0;
    double self_s = 0;
    long calls = 0;
  };
  /// Sums spans named `name`; with a non-empty `under`, only spans with an
  /// ancestor whose name starts with `under`.
  [[nodiscard]] Totals totals(const std::string& name,
                              const std::string& under = "") const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path, const std::string& label) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] bool has_ancestor(int index, const std::string& prefix) const;

  std::int64_t origin_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The tracer the wrapped registry and the workload code report to; null
/// in untraced runs, where every wrapper is a plain call-through.
Tracer* current_tracer();
void set_current_tracer(Tracer* t);

/// RAII span on the current tracer (no-op when there is none).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, long request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

}  // namespace pb
