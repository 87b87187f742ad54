// Parallel execution explorer: frontier partitioning + work stealing.
//
// The choice tree of a protocol is enumerated down to a (small) frontier
// depth F; every node at depth F — and every complete execution shallower
// than F — becomes an independent *subtree job*, identified by its choice
// prefix. Jobs are distributed round-robin over per-worker deques and
// executed by a std::jthread pool; an idle worker steals from the back of
// another worker's deque. Each job replays its prefix into a fresh Sim
// (validating on the way that the factory is deterministic) and then runs
// the same incremental-backtracking DFS as the serial engine.
//
// Determinism. Jobs are numbered in canonical DFS order, and every job
// reports (count, stopped-at, error) for its subtree. The final result is
// computed by walking the reports in canonical order, so the returned
// execution count — including `explore_until` early stops — is
// bit-identical to the serial engine no matter how the subtrees interleaved
// at runtime. The only observable
// difference from serial execution is that on an early stop (or an error),
// visitors of canonically-later subtrees that were already running may have
// been invoked before the stop was discovered.
//
// Visitors run on pool threads. Every visitor call is serialized through a
// mutex, so a visitor need not be thread-safe.
#pragma once

#include "sim/explore.h"

namespace bsr::sim {

class ParallelExplorer {
 public:
  using Factory = Explorer::Factory;
  using Visitor = Explorer::Visitor;
  using StoppingVisitor = Explorer::StoppingVisitor;

  /// `threads` must be >= 1 (resolve via resolve_explore_threads first).
  ParallelExplorer(ExploreOptions opts, int threads);

  long explore(const Factory& make, const Visitor& visit) const;
  long explore_until(const Factory& make, const StoppingVisitor& visit) const;

 private:
  ExploreOptions opts_;
  int threads_;
};

}  // namespace bsr::sim
