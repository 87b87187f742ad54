// Shared plumbing of bsr_perfbench: clocks, order statistics, the
// seeded generator, result records and the one-line JSON verdict.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median (mean of the middle pair for an even count); 0 for no samples.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile, p in [0, 100]; 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Seeded generator: every input the benchmark makes comes from one of
/// these, so the same seed gives the same inputs.
using Rng = std::mt19937_64;

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng() % i);
    std::swap(v[i - 1], v[j]);
  }
}

/// Times the set-up step `name` `reps` times in each of `processes` fresh
/// processes, one after another: this program started again as
/// `bsr_perfbench --setup NAME --reps N`. In a fresh process, lazily built
/// singletons are built again, and no one process's placement on the
/// machine sets the figure. Appends every sample to `out`; throws if a
/// process fails.
void spawned_setup(const std::string& name, int processes, int reps,
                   std::vector<double>& out);

/// The other side of spawned_setup: runs `work` `reps` times and prints
/// the seconds each took, one per line.
int run_setup_child(void (*work)(), int reps);

/// Peak resident set (VmHWM) of this process in MB.
[[nodiscard]] double self_peak_rss_mb();

/// Peak resident set (VmHWM) of a live process in MB; 0 when unreadable.
[[nodiscard]] double pid_peak_rss_mb(int pid);

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bsr = "bsr";        ///< The `bsr` CLI launched as the daemon.
  std::string work_dir = ".";     ///< Run records and sockets, in the checkout.
  std::string commit = "unknown"; ///< Source revision, supplied by run.py.
};

/// An ordered JSON object assembled from already-rendered values.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& num(const std::string& key, double value);
  JsonObject& num(const std::string& key, long value);
  JsonObject& num(const std::string& key, std::uint64_t value) {
    return num(key, static_cast<long>(value));
  }
  JsonObject& boolean(const std::string& key, bool value);
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_numbers(const std::vector<double>& v);
[[nodiscard]] std::string json_strings(const std::vector<std::string>& v);

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main: the verdict, the metrics named
/// in BENCHMARK.json, and everything else worth keeping in the record.
struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< One line per failed gate.
  std::map<std::string, Metric> metrics;
  JsonObject counters;  ///< Exact work counts; identical run to run.
  JsonObject detail;    ///< Timing samples and informational figures.

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Keeps the passes of a timed loop going until `seconds` have elapsed and
/// at least `min_passes` ran.
class PassLoop {
 public:
  PassLoop(double seconds, int min_passes)
      : seconds_(seconds), min_passes_(min_passes), t0_(Clock::now()) {}
  [[nodiscard]] bool more() const {
    return passes_ < min_passes_ || seconds_since(t0_) < seconds_;
  }
  void done() { ++passes_; }
  [[nodiscard]] int passes() const { return passes_; }

 private:
  double seconds_;
  int min_passes_;
  int passes_ = 0;
  Clock::time_point t0_;
};

}  // namespace pb
