// Lock-free transposition table for the exhaustive explorer.
//
// A fixed-size, open-addressed set of 64-bit Zobrist state hashes
// (sim/zobrist.h), shared by every worker of a parallel exploration. Its one
// lookup, `first_visit`, claims a hash: the first visitor of a state
// publishes it with one CAS and explores on; later visitors (other
// schedules converging on the same state, possibly on other threads) find
// it published and prune. Without partial-order reduction the explorer
// claims every search-tree node, so each distinct state's subtree is
// explored once. Under ExploreOptions::por it claims complete states only
// (a reduced visit explores an interior node's subtree only in part), so
// the table deduplicates final configurations.
//
// Entries are never deleted, so a relaxed CAS on an empty slot is the whole
// synchronization story: a slot goes 0 -> h exactly once, and no data is
// published *through* the table that would need ordering. Collisions are
// resolved by bounded linear probing; when the probe window fills up the
// insert is dropped and the caller is told to explore anyway — the search
// loses memoization on that state, never soundness. (A full differential
// run should therefore check Stats::drops == 0 before trusting
// distinct-state counts; see docs/MODEL.md.)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bsr::sim {

class TranspositionTable {
 public:
  /// Builds a table of `bytes / 8` slots rounded down to a power of two
  /// (minimum 1024 slots ≈ 8 KiB).
  explicit TranspositionTable(std::size_t bytes);

  TranspositionTable(const TranspositionTable&) = delete;
  TranspositionTable& operator=(const TranspositionTable&) = delete;

  /// Probes-and-inserts `h`. Returns true when this call published the hash
  /// (first visit — explore the subtree) and false when it was already
  /// present (prune). A full probe window also returns true (explore; the
  /// state simply goes unmemoized) and counts a drop.
  bool first_visit(std::uint64_t h) noexcept;

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
  std::uint64_t mask_ = 0;
  std::atomic<long> probes_{0};
  std::atomic<long> hits_{0};
  std::atomic<long> stores_{0};
  std::atomic<long> drops_{0};
};

}  // namespace bsr::sim
