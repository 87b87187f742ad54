// Lock-free transposition table for the exhaustive explorer.
//
// A fixed-size, open-addressed map from 64-bit Zobrist state hashes
// (sim/zobrist.h) to schedule counts, shared by every worker of a parallel
// exploration. Its one lookup, `claim`, claims a hash: the first visitor of
// a state publishes it with one CAS and explores on; later visitors (other
// schedules converging on the same state, possibly on other threads) find
// it claimed, together with the number of schedules below the state once
// its explorer has backed out and `publish`ed it, or kPending until then.
// Without partial-order reduction the explorer claims every search-tree
// node and adds a claimed state's published count instead of exploring it
// again, so each distinct state is expanded once and the returned count
// stays the number of schedules. Under ExploreOptions::por it claims
// complete states only (a reduced visit explores an interior node's subtree
// only in part), so the table deduplicates final configurations.
//
// Entries are never deleted, so a relaxed CAS on an empty slot is the whole
// synchronization story for the hash: a slot goes 0 -> h exactly once. Its
// count goes kPending -> n, and a racing reader sees one or the other; the
// count is the only datum published through the table. Collisions are
// resolved by bounded linear probing; when the probe window fills up the
// insert is dropped and the caller is told to explore anyway — the search
// loses memoization on that state, never exactness, though the state's
// final configurations may then be visited more than once. (A full
// differential run should therefore check Stats::drops == 0 before
// trusting visit counts; see docs/MODEL.md.)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bsr::sim {

/// Table size for searches that memoize schedule counts on a few thousand
/// states: the analyzer's dynamic tier and serve's `explore`. 4 096 slots;
/// the largest registry spec stores 371 states, Algorithm 1 at k = 6 with
/// two crashes 1 175.
inline constexpr std::size_t kSmallTableBytes = std::size_t{64} << 10;

class TranspositionTable {
 public:
  /// The count of a claimed state whose explorer has not backed out yet.
  static constexpr long kPending = -1;
  /// Bytes per slot: the hash and its count.
  static constexpr std::size_t kSlotBytes = 16;

  /// Builds a table of `bytes / kSlotBytes` slots rounded down to a power
  /// of two (minimum 1024 slots = 16 KiB).
  explicit TranspositionTable(std::size_t bytes);

  TranspositionTable(const TranspositionTable&) = delete;
  TranspositionTable& operator=(const TranspositionTable&) = delete;

  /// What `claim` found.
  struct Claim {
    /// True when this call claimed the hash (first visit — explore the
    /// subtree). A full probe window is also `first` (explore; the state
    /// simply goes unmemoized) and counts a drop.
    bool first = true;
    /// On a hit: the published schedule count, or kPending.
    long count = kPending;
  };
  /// Probes-and-inserts `h`.
  Claim claim(std::uint64_t h) noexcept;

  /// Stores the schedule count of a claimed `h`; a hash the table does not
  /// hold (its insert was dropped) is ignored. Every explorer of a state
  /// publishes the same count, so a repeat is harmless.
  void publish(std::uint64_t h, long count) noexcept;

  /// Monotonic counters, snapshot with relaxed loads: `probes` claims,
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

  struct Slot {
    std::atomic<std::uint64_t> hash{0};
    std::atomic<long> count{kPending};
  };
  static_assert(sizeof(Slot) == kSlotBytes);

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  std::atomic<long> probes_{0};
  std::atomic<long> hits_{0};
  std::atomic<long> stores_{0};
  std::atomic<long> drops_{0};
};

}  // namespace bsr::sim
