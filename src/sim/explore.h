// Exhaustive execution explorer (bounded model checking).
//
// Protocols in this library are deterministic state machines; all
// nondeterminism lives in the scheduler. The explorer therefore enumerates
// *every* execution of a protocol by depth-first search over scheduling
// choices (which process steps next, which channel a Recv drains, which
// processes crash and when). This lets tests check lemma-level statements
// ("in every execution, |r1 − r2| ≤ 1") by literally checking every
// execution, which is how we validate Lemmas 5.1–5.6 and the snapshot
// properties of §7.
//
// `Explorer` keeps ONE live Sim per search and backtracks incrementally:
// the Sim records an undo log (see Sim::set_checkpointing), so taking a
// sibling branch rewinds the world to the divergence point instead of
// rebuilding the Sim and replaying the whole choice prefix. That is why a
// factory must hand over a Sim that has not stepped yet. With `threads` > 1
// (or BSR_EXPLORE_THREADS set), it partitions the choice tree at a frontier
// depth into subtree jobs in canonical DFS order, and a thread pool takes
// them in that order from one shared cursor; execution counts and
// `explore_until` early-stop results stay bit-identical to the serial
// search. The test suites check it against a rebuild-and-replay oracle
// (tests/support/replay_explorer.h).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "analysis/static/interference.h"
#include "sim/sched.h"
#include "sim/sim.h"

namespace bsr::sim {

class TranspositionTable;  // sim/tt.h

/// Environment variable consulted when ExploreOptions::threads == 0.
inline constexpr const char* kExploreThreadsEnv = "BSR_EXPLORE_THREADS";

struct ExploreOptions {
  /// Maximum execution length; exceeding it aborts the exploration with a
  /// UsageError (it means the protocol does not terminate in bound).
  long max_steps = 10'000;
  /// The adversary may crash up to this many processes (t of the model).
  int max_crashes = 0;
  /// Worker threads. 1 = serial; 0 = resolve from BSR_EXPLORE_THREADS
  /// (unset ⇒ 1, "0" or "auto" ⇒ hardware concurrency). Values > 1 take the
  /// parallel path, which serializes visitor calls through a mutex.
  int threads = 0;
  /// State-space memoization: when set, the engine maintains a Zobrist hash
  /// of the world (Sim::set_state_hashing) and claims each search-tree node's
  /// state — registers, coroutine histories, channels, crashes, AND
  /// collected violations — in this table. When it backs out of a node it
  /// publishes the number of schedules below it; when it reaches a claimed
  /// state again it adds that count instead of exploring the subtree again.
  /// The table never changes the returned count, only the work done and the
  /// number of visitor calls: the visitor runs once per *distinct* final
  /// configuration (the first schedule in DFS order that reaches it, when
  /// serial), and the set of final states and collected violations is
  /// exactly that of the search without a table as long as the table reports
  /// no drops. Under `por` it consults the table at complete states only, so
  /// it deduplicates final configurations: a repeated one counts without a
  /// visit. The table is shared across parallel workers (a worker that meets
  /// a state another one is still exploring explores it again) and may be
  /// shared across explore calls: a repeated search returns the first one's
  /// count without visiting. `explore_until` early stops leave the states
  /// they were inside unpublished, which a later search explores again.
  std::shared_ptr<TranspositionTable> tt;
  /// Sleep-set partial-order reduction (off by default). At each search
  /// node the engine skips any choice provably independent — via the
  /// footprint relation of analysis/static/interference.h, fed with
  /// pending-op footprints — of every choice already explored since the
  /// node was entered: the skipped interleaving commutes, step by step,
  /// into one explored earlier. The reduction preserves the exact set of
  /// reachable final configurations and of collected violations (the
  /// search tree is acyclic: result histories grow along every path), so
  /// violation findings are bit-identical to the unreduced search; the
  /// returned count shrinks to one representative schedule per commutation
  /// class. A crash is applied only where it can end a schedule: it commutes
  /// with every other process's step that may not violate, and it only sets
  /// its own process's flag, so the choices below it are this node's minus
  /// the crashed process's (and minus every crash once the budget is spent).
  /// When those are all asleep below it, the crash is put to sleep
  /// unapplied, exactly as if its child had been entered and found blocked.
  /// Composes with `tt`: the table then sees only complete states (a
  /// reduced visit explores an interior node's subtree only in part, so no
  /// interior node is claimed), the count stays the reduced search's, and
  /// the visitor runs once per distinct final configuration.
  bool por = false;
};

/// Work counters of one search. The caller passes one to Explorer::explore
/// or explore_until, which overwrites it; each serial search and each
/// parallel job counts into its own copy, and the parallel path sums the
/// jobs' copies after its pool joins, so counting costs plain increments.
/// The parallel path counts its jobs' subtrees only, not the frontier
/// enumeration above them or the replay of each job's prefix, so only
/// `leaves` is comparable between serial and parallel runs.
struct ExploreStats {
  long nodes = 0;   ///< Choices applied (a table hit's child included).
  long leaves = 0;  ///< Complete executions reached; the count under `por`.
  /// Nodes entered under `por` that applied no choice: each was asleep, or
  /// was a crash whose child would have been sleep-blocked.
  long sleep_blocked = 0;

  ExploreStats& operator+=(const ExploreStats& o) {
    nodes += o.nodes;
    leaves += o.leaves;
    sleep_blocked += o.sleep_blocked;
    return *this;
  }
};

/// Resolves the effective thread count: `requested` if > 0, else
/// BSR_EXPLORE_THREADS ("0"/"auto" ⇒ hardware concurrency, unset/empty ⇒ 1).
/// Throws UsageError on a malformed environment value.
[[nodiscard]] int resolve_explore_threads(int requested);

class Explorer {
 public:
  /// Builds a fresh, fully-spawned Sim that has not stepped yet (the
  /// explorer schedules every step, Start steps included; a stepped Sim is
  /// a UsageError). Called once per serial search and once per parallel
  /// subtree job; must be deterministic.
  using Factory = std::function<std::unique_ptr<Sim>()>;
  /// Called on every complete execution (a state with no enabled process),
  /// with the final Sim and the schedule that produced it; with
  /// ExploreOptions::tt, once per distinct final configuration.
  using Visitor = std::function<void(Sim&, const std::vector<Choice>&)>;

  explicit Explorer(ExploreOptions opts) : opts_(opts) {}

  /// Runs the DFS; returns the number of schedules (complete executions),
  /// which the visitor sees all of only without ExploreOptions::tt. A
  /// non-null `stats` receives the search's work counters.
  long explore(const Factory& make, const Visitor& visit,
               ExploreStats* stats = nullptr) const;

  /// Like explore, but the visitor may stop the search by returning true.
  using StoppingVisitor =
      std::function<bool(Sim&, const std::vector<Choice>&)>;
  long explore_until(const Factory& make, const StoppingVisitor& visit,
                     ExploreStats* stats = nullptr) const;

 private:
  ExploreOptions opts_;
};

namespace detail {

/// Replaces `out` with the scheduling choices available in the Sim's
/// current state, in canonical order: Step choices by pid (with Recv-sender
/// sub-choices in sender order), then Crash choices by pid while the crash
/// budget allows. Filling a caller-owned buffer lets a search reuse one
/// vector per depth instead of allocating one per node.
void legal_choices(const Sim& sim, int crashes_so_far,
                   const ExploreOptions& opts, std::vector<Choice>& out);

/// Overwrites `fp` with the shared-state footprint of one scheduling choice
/// in the Sim's *current* state, built from the pending OpRequest (crash
/// choices have a crash-only footprint). A Step's `may_violate` is the
/// simulator's own answer, Sim::step_may_violate. Every field is reset; the
/// register vectors keep their capacity, so a caller-owned footprint is
/// built without allocating once it has grown to the protocol's widest op.
/// With `accesses` false the register and channel fields stay empty;
/// analysis::itf::classify decides a pair with a crash operand without them.
void choice_footprint(const Sim& sim, const Choice& c,
                      analysis::itf::Footprint& fp, bool accesses = true);

/// Whether `a` and `b` commute in the Sim's current state, per the shared
/// decision procedure analysis::itf::classify over pending-op footprints.
[[nodiscard]] bool independent(const Sim& sim, const Choice& a,
                               const Choice& b);

}  // namespace detail

}  // namespace bsr::sim
