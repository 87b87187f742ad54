// Lock-free transposition table for the exhaustive explorer.
//
// A fixed-size, open-addressed set of 64-bit Zobrist state hashes
// (sim/zobrist.h), shared by every worker of a parallel exploration. The
// explorer probes it at each search-tree node: the first visitor of a state
// publishes the hash with one CAS and explores the subtree; later visitors
// (other schedules converging on the same state, possibly on other threads)
// see the published hash and prune.
//
// Entries are never deleted, so a relaxed CAS on an empty slot is the whole
// synchronization story: a slot goes 0 -> h exactly once, and no data is
// published *through* the table that would need ordering. Collisions are
// resolved by bounded linear probing; when the probe window fills up the
// insert is dropped and the caller is told to explore anyway — the search
// loses memoization on that state, never soundness. (A full differential
// run should therefore check Stats::drops == 0 before trusting
// distinct-state counts; see docs/MODEL.md.)
//
// Beside the slots the table keeps a *home summary*: one bit per slot, set
// once some published hash has that slot as its home (`h & mask`). At 1/64
// of the slot array's bytes it stays cache-resident where the slots do not,
// and `seen` — the sleep-set explorer's probe-only lookup, which misses far
// more often than it hits — reads it first and answers "absent" without
// touching the slots when the home bit is clear. The bit is set with a
// relaxed fetch_or after the publishing CAS, so it may lag the slot: a
// `seen` racing a concurrent publish can read it clear and explore anyway.
// That is exactly the answer a slot read racing the CAS gets, and it is
// sound: `seen` never inserts, so a false miss costs a redundant partial
// subtree, never a lost state. Leaves always go through `first_visit`
// (a complete state has an empty sleep set), so leaf counts stay exact and
// identical between serial and parallel runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bsr::sim {

class TranspositionTable {
 public:
  /// Builds a table of `bytes / 8` slots rounded down to a power of two
  /// (minimum 1024 slots ≈ 8 KiB), plus its home summary (1/64 of that).
  explicit TranspositionTable(std::size_t bytes);

  TranspositionTable(const TranspositionTable&) = delete;
  TranspositionTable& operator=(const TranspositionTable&) = delete;

  /// Probes-and-inserts `h`. Returns true when this call published the hash
  /// (first visit — explore the subtree) and false when it was already
  /// present (prune). A full probe window also returns true (explore; the
  /// state simply goes unmemoized) and counts a drop.
  bool first_visit(std::uint64_t h) noexcept;

  /// Probe-only lookup: true when `h` is already published (prune), false
  /// otherwise. Never inserts — the sleep-set explorer (ExploreOptions::
  /// por) must not memoize a state it visits under a non-empty sleep set,
  /// because such a visit explores only part of the state's subtree; only
  /// empty-sleep visits go through `first_visit`. Answers from the home
  /// summary alone when no published hash shares `h`'s home slot. Counts a
  /// probe (and a hit when found) either way.
  [[nodiscard]] bool seen(std::uint64_t h) noexcept;

  /// Monotonic counters, snapshot with relaxed loads: `probes` calls,
  /// `hits` already-present results, `stores` successful inserts, `drops`
  /// full-window misses.
  struct Stats {
    long probes = 0;
    long hits = 0;
    long stores = 0;
    long drops = 0;
    std::size_t slots = 0;
  };
  [[nodiscard]] Stats stats() const noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  static constexpr int kProbeWindow = 16;

  std::vector<std::atomic<std::uint64_t>> slots_;
  /// Bit `i % 64` of word `i / 64` is set once a published hash has home
  /// slot `i`.
  std::vector<std::atomic<std::uint64_t>> homes_;
  std::uint64_t mask_ = 0;
  std::atomic<long> probes_{0};
  std::atomic<long> hits_{0};
  std::atomic<long> stores_{0};
  std::atomic<long> drops_{0};
};

}  // namespace bsr::sim
