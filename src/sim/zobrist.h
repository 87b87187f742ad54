// Incremental Zobrist hashing of the simulated world state.
//
// The exhaustive explorer re-visits a world state whenever two schedules
// converge (e.g. two independent writes commute). To prune such re-visits,
// the Sim can maintain a 64-bit hash of its *complete* configuration as an
// XOR of per-fact components:
//
//   * one component per register holding its current content,
//   * one component per executed step of each process, keyed by
//     (pid, step index, step result) — protocol bodies are deterministic
//     state machines, so a process's result history pins its coroutine
//     state exactly (this is the same invariant Sim::rewind relies on),
//   * one component per undelivered message, keyed by (channel, absolute
//     slot index, payload), where the absolute index counts from the first
//     message ever sent on the channel so FIFO pops stay O(1),
//   * one component per crashed process,
//   * one component per collected ModelEvent — two schedules can converge
//     on the same world state while blaming different processes for the
//     same violation (e.g. opposite orders of two identical writes to a
//     write-once register), and the analysis tier must not lose either
//     finding to pruning.
//
// Because XOR is its own inverse, the Sim maintains the hash in O(1) per
// step through the same step history and undo log that power incremental
// backtracking: each mutation toggles its components in, each rewind back
// out. A toggle is O(1) even for a nested full-information view, because
// a composite Value caches its structural hash at construction.
//
// Component keys are derived from splitmix64-seeded mixing chains rather
// than lookup tables, so arbitrary register counts, step indices, and queue
// depths need no preallocated key material.
#pragma once

#include <cstdint>
#include <string>

#include "sim/op.h"
#include "sim/sim.h"

namespace bsr::sim::zobrist {

/// splitmix64's output mixer: a strong 64-bit finalizer.
[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Folds one word into a mixing chain.
[[nodiscard]] constexpr std::uint64_t combine(std::uint64_t seed,
                                              std::uint64_t w) noexcept {
  return mix(seed + 0x9e3779b97f4a7c15ULL + w);
}

// Distinct chain seeds per component family.
inline constexpr std::uint64_t kRegTag = mix(0xb5297a4d1a2c4e01ULL);
inline constexpr std::uint64_t kHistTag = mix(0x68e31da4b1c89b02ULL);
inline constexpr std::uint64_t kChanTag = mix(0x1b56c4e9a3d21703ULL);
inline constexpr std::uint64_t kCrashTag = mix(0x7feb352d4c95a604ULL);
inline constexpr std::uint64_t kViolTag = mix(0x3c6ef372fe94f805ULL);

/// 64-bit structural hash of a Value (Value::hash run through the mixer).
[[nodiscard]] std::uint64_t value_hash(const Value& v) noexcept;

/// Deterministic (FNV-1a + mix) hash of a violation message string.
[[nodiscard]] std::uint64_t message_hash(const std::string& s) noexcept;

/// Component: register `reg` currently holds `v`.
[[nodiscard]] inline std::uint64_t reg_component(int reg,
                                                 const Value& v) noexcept {
  return combine(combine(kRegTag, static_cast<std::uint64_t>(reg)),
                 value_hash(v));
}

/// Component: process `pid`'s step number `index` returned result `r`.
[[nodiscard]] inline std::uint64_t hist_component(Pid pid, long index,
                                                  const OpResult& r) noexcept {
  std::uint64_t h = combine(kHistTag, (static_cast<std::uint64_t>(pid) << 32) ^
                                          static_cast<std::uint64_t>(index));
  h = combine(h, value_hash(r.value));
  return combine(h, static_cast<std::uint64_t>(r.from) + 1);
}

/// Component: the `slot`-th message ever sent from `from` to `to` is still
/// queued and carries `v`.
[[nodiscard]] inline std::uint64_t chan_component(Pid from, Pid to, long slot,
                                                  const Value& v) noexcept {
  std::uint64_t h = combine(kChanTag, (static_cast<std::uint64_t>(from) << 32) ^
                                          static_cast<std::uint64_t>(to));
  h = combine(h, static_cast<std::uint64_t>(slot));
  return combine(h, value_hash(v));
}

/// Component: process `pid` is crash-stopped.
[[nodiscard]] inline std::uint64_t crash_component(Pid pid) noexcept {
  return combine(kCrashTag, static_cast<std::uint64_t>(pid));
}

/// Component: one collected ModelEvent, blamed pid and message included.
[[nodiscard]] inline std::uint64_t viol_component(
    const ModelEvent& e) noexcept {
  std::uint64_t h = combine(kViolTag, static_cast<std::uint64_t>(e.kind));
  h = combine(h, (static_cast<std::uint64_t>(e.pid) << 32) ^
                     (static_cast<std::uint64_t>(e.reg) & 0xffffffffULL));
  return combine(h, message_hash(e.message));
}

/// From-scratch recomputation of the Sim's state hash (the property-test
/// oracle for the incrementally maintained value, and the state fingerprint
/// of the tests' replay oracle). Requires checkpointing
/// (the step history is part of the state).
[[nodiscard]] std::uint64_t full_hash(const Sim& sim);

}  // namespace bsr::sim::zobrist
