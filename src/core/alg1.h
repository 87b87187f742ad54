// Algorithm 1 (§5.1): wait-free ε-agreement for two processes with 1-bit
// registers.
//
// Each process alternates writing 0/1 into its own 1-bit register and
// reading the other's, for at most k iterations, breaking out as soon as it
// reads the same value twice (desynchronization detected). Decisions are
// values m/(2k+1); we represent them by the numerator m ∈ {0, …, 2k+1}, so a
// run of Algorithm 1 solves the discretized ApproxAgreement task with
// denominator 2k+1 (precision ε = 1/(2k+1)).
//
// Inputs are exchanged through the write-once input registers I_1, I_2 (the
// paper's convention separating input transfer from coordination); the
// coordination registers R_1, R_2 are 1-bit, enforced by the simulator.
//
// The body is written against the proto builder (src/proto/builder.h), so
// the same code drives the simulator and — in reflect mode — emits the
// static IR that `describe_alg1` returns.
#pragma once

#include <array>
#include <cstdint>

#include "analysis/static/ir.h"
#include "proto/builder.h"
#include "sim/sim.h"

namespace bsr::core {

/// Where a process of Algorithm 1 decided — used by tests to check the
/// case analysis of Lemma 5.5.
enum class Alg1DecideLine {
  None,        ///< Did not decide (crashed).
  SameInputs,  ///< Line 10: read ⊥ or equal inputs.
  LoopEnd,     ///< Line 14: completed all k iterations, new = k mod 2.
  EarlyBreak,  ///< Line 17: left the loop after reading the same value twice.
};

/// Per-execution diagnostics (white-box observations for lemma tests).
struct Alg1Diag {
  std::array<int, 2> iterations{0, 0};  ///< Final value of loop variable r.
  std::array<Alg1DecideLine, 2> line{Alg1DecideLine::None,
                                     Alg1DecideLine::None};
};

/// Register indices created by install_alg1.
struct Alg1Handles {
  std::array<int, 2> input;  ///< I_1, I_2 (write-once, unbounded).
  std::array<int, 2> comm;   ///< R_1, R_2 (1-bit, initially 0).
};

/// Denominator of the output grid: decisions are numerators over this.
[[nodiscard]] constexpr std::uint64_t alg1_denominator(std::uint64_t k) {
  return 2 * k + 1;
}

/// Algorithm 1's decision spread over a set of executions: the extreme
/// decisions and the widest gap between the two processes' decisions, in
/// grid steps (the paper's ε-agreement bound is 1). `min` stays ~0 until
/// some process decides.
struct Alg1Spread {
  std::uint64_t min = ~0ULL;
  std::uint64_t max = 0;
  std::uint64_t max_gap = 0;

  /// Folds in one final state; a crashed process contributes nothing.
  void record(const sim::Sim& sim);
  bool operator==(const Alg1Spread&) const = default;
};

/// Adds Algorithm 1's registers to `sim` (which must have n = 2) and spawns
/// both processes with the given binary inputs. If `diag` is non-null it is
/// filled in as the processes run; it must outlive the simulation.
Alg1Handles install_alg1(sim::Sim& sim, std::uint64_t k,
                         std::array<std::uint64_t, 2> inputs,
                         Alg1Diag* diag = nullptr);

/// Declares Algorithm 1's four registers (without spawning processes):
/// write-once ⊥/0/1 input registers of 2 bits each, and 1-bit coordination
/// registers. Per process this is the paper's 3 bits of shared state
/// (Theorem 1.2 / §5.2.3). Works in both builder modes.
Alg1Handles add_alg1_registers(proto::Proto& pr);
/// Convenience overload for execute-mode callers holding a bare Sim.
Alg1Handles add_alg1_registers(sim::Sim& sim);

/// The ε-agreement core as an awaitable subroutine: runs Algorithm 1 inside
/// an already-running process coroutine and returns the decided grid
/// numerator over alg1_denominator(k). Used directly by Algorithm 2; legacy
/// Env-based coroutines wrap their Env via `proto::P::exec`.
sim::Task<std::uint64_t> alg1_agree(proto::P p, Alg1Handles h,
                                    std::uint64_t k, std::uint64_t input,
                                    Alg1Diag* diag = nullptr);

/// Static IR of install_alg1, reflected from the builder body above
/// (`bsr lint --static`): same register table, same access pattern.
[[nodiscard]] analysis::ir::ProtocolIR describe_alg1(std::uint64_t k);

}  // namespace bsr::core
