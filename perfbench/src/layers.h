// Per-layer measurement: work counts derived from outside the library, the
// traced copy of the protocol registry, the per-spec decomposition of a
// lint sweep, and the one function that turns a pass's spans and counts
// into the per-layer metrics named in BENCHMARK.json.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/claims.h"
#include "analysis/diag.h"
#include "common.h"
#include "sim/explore.h"
#include "sim/tt.h"
#include "trace.h"

namespace pb {

/// Search work of the serial explorer, derived from consecutive leaf
/// schedules. Between two leaves the explorer rewinds the undone suffix in
/// one Sim::rewind, and every process that stepped in that suffix replays
/// the results it keeps (its steps in the shared prefix).
struct ExploreCounts {
  long nodes = 0;      ///< Choices applied.
  long leaves = 0;     ///< Complete executions visited.
  long backtracks = 0; ///< Rewinds between consecutive leaves.
  long rewound = 0;    ///< Choices undone by those rewinds.
  long replayed = 0;   ///< Results replayed by rebuilt coroutines.

  void add(const ExploreCounts& o);
  [[nodiscard]] std::string json() const;
};

class ScheduleDeriver {
 public:
  explicit ScheduleDeriver(int n) : n_(n) {}
  /// Feeds the next leaf schedule of one explore call.
  void leaf(const std::vector<bsr::sim::Choice>& schedule);
  [[nodiscard]] const ExploreCounts& counts() const { return counts_; }

 private:
  int n_;
  std::vector<bsr::sim::Choice> prev_;
  /// steps_[d * n + p]: steps of process p among the first d choices.
  std::vector<long> steps_;
  ExploreCounts counts_;
};

/// Counts measured beside the spans of one pass.
struct LayerCounts {
  ExploreCounts explore;
  bsr::sim::TranspositionTable::Stats tt;
  long obligations = 0;
  long grid_fallbacks = 0;
  long render_bytes = 0;
  // Serve figures (set by the serve workload).
  long serve_requests = 0;   ///< Cache lookups (batch elements count).
  long serve_hits = 0;
  long serve_evictions = 0;
  double serve_transport_us = 0;
  std::map<std::string, double> serve_mode_us;  ///< lint, explore, doc.
  double serve_response_bytes = 0;
};

/// A per-layer value. An exact value is a work count, which must repeat
/// from pass to pass; any other is a timing.
struct LayerValue {
  double value = 0;
  std::string unit;
  bool exact = true;
};
using Layers = std::map<std::string, LayerValue>;

/// The per-layer metrics of one traced pass.
[[nodiscard]] Layers compute_layers(const Tracer& t, const LayerCounts& c);

/// Medians across passes; counts must agree exactly (mismatches are named
/// in `mismatches`).
[[nodiscard]] Layers merge_passes(const std::vector<Layers>& passes,
                                  std::vector<std::string>& mismatches);

/// A copy of the built-in registry whose describe, factory and
/// sample_runner hooks record spans on the current tracer.
[[nodiscard]] std::vector<bsr::analysis::ProtocolSpec> traced_registry();

/// Non-demo specs of a registry, in registry order.
[[nodiscard]] std::vector<const bsr::analysis::ProtocolSpec*> sweep_specs(
    const std::vector<bsr::analysis::ProtocolSpec>& reg);

/// Which tiers of a spec the decomposition runs.
struct DecomposeItem {
  const bsr::analysis::ProtocolSpec* spec = nullptr;
  bool static_tier = true;
  bool dynamic_tier = true;
};

/// Calls the lint tiers' public pieces one by one under their own spans:
/// analyze_static, verify_claims, verify_step_claims, the IR fingerprint,
/// analyze_protocol next to a plain run of the same spec (the difference is
/// the analyzer's harvest), and a JsonSink rendering of the reports.
void decompose(const std::vector<DecomposeItem>& items, LayerCounts& counts);

/// A plain serial exploration under a span named `span`, its work counts
/// derived from the leaf schedules and added to `out`.
void derived_explore(const char* span, const bsr::sim::Explorer::Factory& make,
                     bsr::sim::ExploreOptions opts, ExploreCounts& out);

/// Adds an explore visitor's timing as an aggregate child span.
class VisitorClock {
 public:
  void start() { t0_ = Clock::now(); }
  void stop() {
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
               .count();
    ++calls_;
  }
  void flush(const char* name = "visitor");

 private:
  Clock::time_point t0_;
  std::int64_t ns_ = 0;
  long calls_ = 0;
};

}  // namespace pb
