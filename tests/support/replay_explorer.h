// The rebuild-and-replay explorer: the differential oracle the explorer
// suites check sim::Explorer against.
//
// Each execution is produced by rebuilding the Sim from the factory and
// replaying the committed prefix of scheduling choices, so a branch costs
// O(depth) and nothing is hashed, rewound, reduced or shared between
// threads. It enumerates the same choice tree in the same canonical order
// as Explorer and honors only `max_steps` and `max_crashes` — which is what
// makes it an oracle for the table, POR and parallel paths. It is test
// support, not library code: src/ and tools/ never link it.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "sim/explore.h"
#include "sim/sim.h"

namespace bsr::sim {

class ReplayExplorer {
 public:
  using Factory = Explorer::Factory;
  using Visitor = Explorer::Visitor;
  using StoppingVisitor = Explorer::StoppingVisitor;

  explicit ReplayExplorer(ExploreOptions opts) : opts_(opts) {}

  long explore(const Factory& make, const Visitor& visit) const;
  long explore_until(const Factory& make, const StoppingVisitor& visit) const;

 private:
  ExploreOptions opts_;
};

/// What one exploration saw, in path-order-independent form.
struct Observed {
  long count = 0;   ///< What the explore call returned.
  long visits = 0;  ///< Visitor calls, one `record` each.
  std::set<std::uint64_t> finals;  ///< Hashes of distinct final states.
  /// Deduped violations, each keyed by kind, pid, register and message.
  std::set<std::string> violations;

  /// Records one leaf whose final state hashes to `final_hash`.
  void record(const Sim& sim, std::uint64_t final_hash);
};

/// Ground truth: every schedule through ReplayExplorer (which ignores the
/// table, POR and thread settings of `opts`), with final states collapsed
/// by the from-scratch hash zobrist::full_hash. `also`, if set, sees every
/// leaf too.
[[nodiscard]] Observed replay_oracle(const Explorer::Factory& make,
                                     const ExploreOptions& opts,
                                     const Explorer::Visitor& also = {});

}  // namespace bsr::sim
