// §6: universality with O(t)-bit registers when t < n/2 (Theorem 1.3).
//
// The construction stacks three layers, each independently testable:
//   app    — t-resilient ε-agreement by round-based midpoint averaging over
//            emulated atomic registers (the "algorithm A" of the theorem;
//            validity/agreement follow from the write-order argument: the
//            first round-r writer is seen by every round-r reader, so the
//            estimate range halves every round);
//   ABD    — atomic SWMR registers from t-resilient message passing
//            (msg/abd.h);
//   router — complete network from the (t+1)-connected t-augmented ring by
//            flooding (msg/router.h);
//   ABP    — ring links from bounded registers via the alternating-bit
//            protocol (msg/abp.h), all of one process's link state packed
//            into a single register of 3(t+1) bits.
//
// Three installers run the same app over increasingly constrained
// substrates: native complete-graph channels (ABD only), native ring
// channels (ABD + router; the simulator's topology enforcement proves no
// non-ring link is used), and the full register stack (Theorem 1.3: the
// only shared objects are n registers of 3(t+1) bits each).
//
// Stack processes serve forever (a decided process must keep answering
// quorum requests), so decisions are exposed through a Sec6Result the
// caller polls; run with run_round_robin_until / run_random + done.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "analysis/static/ir.h"
#include "sim/sched.h"
#include "sim/sim.h"

namespace bsr::core {

/// Decision slots, filled as applications decide (grid numerators over
/// 2^rounds).
struct Sec6Result {
  std::vector<std::optional<std::uint64_t>> decision;

  explicit Sec6Result(int n)
      : decision(static_cast<std::size_t>(n), std::nullopt) {}

  /// True when every process of `sim` that has not crashed has decided.
  [[nodiscard]] bool all_decided(const sim::Sim& sim) const;

  /// Done-predicate for runners: `all_decided` on `res`.
  [[nodiscard]] static std::function<bool(const sim::Sim&)> done_predicate(
      std::shared_ptr<Sec6Result> res);
};

struct Sec6Options {
  int t = 1;       ///< Resilience (must satisfy t < n/2).
  int rounds = 2;  ///< Averaging rounds T; precision ε = 2^-T.
};

/// ABD over native complete-graph channels (phase 1 alone).
void install_abd_stack(sim::Sim& sim, Sec6Options opts,
                       const std::vector<std::uint64_t>& inputs,
                       std::shared_ptr<Sec6Result> result);

/// ABD + flooding router over native ring channels (phases 1–2). The Sim
/// must have been created with the t-augmented-ring topology
/// (`ring_sim_options`) — the kernel then rejects any off-ring send.
void install_ring_stack(sim::Sim& sim, Sec6Options opts,
                        const std::vector<std::uint64_t>& inputs,
                        std::shared_ptr<Sec6Result> result);

/// SimOptions preconfigured with the t-augmented ring topology.
[[nodiscard]] sim::SimOptions ring_sim_options(int n, int t);

/// The full Theorem 1.3 stack: ABD + router + alternating-bit links over
/// one register of 3(t+1) bits per process. Returns the register indices.
std::vector<int> install_register_stack(sim::Sim& sim, Sec6Options opts,
                                        const std::vector<std::uint64_t>& inputs,
                                        std::shared_ptr<Sec6Result> result);

/// Register width used by the full stack.
[[nodiscard]] constexpr int sec6_register_bits(int t) { return 3 * (t + 1); }

/// Static IR of install_register_stack, reflected from the same builder
/// body the factory runs: each process serves an unbounded pump loop
/// reading its ring neighbours' registers and conditionally rewriting its
/// own 3(t+1)-bit wire word.
[[nodiscard]] analysis::ir::ProtocolIR describe_register_stack(
    int n, Sec6Options opts);

/// Static IR of install_abd_stack, reflected from the same builder body the
/// factory runs: no registers; a complete message topology (AbdLayer
/// delivers to itself internally, so no self-loops) and per process one
/// serving round of an unbounded send/recv pump.
[[nodiscard]] analysis::ir::ProtocolIR describe_abd_stack(
    int n, Sec6Options opts);

/// Static IR of install_ring_stack, reflected like describe_abd_stack but
/// with the t-augmented ring (offsets 1 … t+1) as the declared topology,
/// matching ring_sim_options — the flooding router never sends off-ring.
[[nodiscard]] analysis::ir::ProtocolIR describe_ring_stack(
    int n, Sec6Options opts);

}  // namespace bsr::core
