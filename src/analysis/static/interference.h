// Static interference analysis over ProtocolIR: a sound op-level
// independence relation for the explorer's partial-order reduction.
//
// Two scheduling choices are *independent* when executing them in either
// order from any reachable state yields the same state (including the
// violation log and the per-process result histories), and neither enables
// or disables the other. The relation here is decided purely on op
// *footprints* — the registers an op reads (snapshot members included) and
// writes, the channel endpoints a send/recv touches, whether the op draws
// on the adversary's crash budget, and whether it may record a model
// violation (which is order-sensitive: violation events carry step indices
// and, outside collect mode, abort the execution). Anything the footprints
// cannot prove disjoint is classified *may-interfere*; soundness errs
// toward dependence.
//
// `classify` is the single decision procedure shared by three consumers:
//
//   1. the static pair report behind `bsr lint --mode=interference`
//      (footprints extracted from the reflected IR by `analyze`),
//   2. the explorer's sleep-set reduction (`ExploreOptions::por`;
//      footprints built from pending OpRequests in src/sim/explore.cpp),
//   3. the dynamic commutation oracle (tests/interference_test.cpp), which
//      swaps adjacent independent steps and asserts Zobrist state-hash
//      equality — any mismatch is a soundness bug in this relation.
//
// The rules, and why each is sound (docs/ANALYSIS.md spells out the full
// argument):
//
//   - ops of the same process never commute (program order);
//   - an op that may violate the model never commutes (the violation event
//     records the global step index, and in throwing mode aborts);
//   - two writes, or a write and a read, of the same register conflict —
//     a register read *via snapshot* counts exactly like a named read (the
//     demo-false-independence canary pins this);
//   - a send to q conflicts with any receive by q whose source filter
//     admits the sender (delivery order and the receive's choice set both
//     depend on the send); sends commute with sends (distinct FIFO
//     queues), receives with receives (different receivers drain disjoint
//     queues);
//   - two crashes conflict (both draw on the same crash budget and the
//     budget's exhaustion disables further crash choices); a crash and a
//     step of a *different* process commute (a crash only halts its own
//     process and touches no shared state).
//
// This library is deliberately sim-free (bsr_ir): the simulator links it
// and feeds runtime footprints through the same `classify`.
#pragma once

#include <string>
#include <vector>

#include "analysis/static/ir.h"

namespace bsr::analysis::itf {

/// The shared state one scheduling choice touches. Register sets are
/// sorted and deduplicated. A crash choice has `crash = true` and empty
/// register/channel fields.
struct Footprint {
  int pid = -1;
  bool crash = false;
  std::vector<int> reads;   ///< Registers read; snapshot members included.
  std::vector<int> writes;  ///< Registers written.
  int send_to = -1;         ///< Send destination pid (-1: not a send).
  bool is_recv = false;
  int recv_from = -1;       ///< Receive source filter (-1 = any source).
  /// The op may record a ModelEvent (or throw ModelError): width overflow,
  /// ⊥-escape, SWMR/write-once breach, off-topology send — or any step at
  /// all under a declared round budget (round events fire inside the
  /// resumed body, invisible to the pending op, so the budget makes every
  /// step order-sensitive: a deliberately blunt, sound rule).
  bool may_violate = false;
};

/// Why a pair was classified the way it was. `reason` renders the code as
/// a human-readable justification (register names resolved when the
/// protocol's table is supplied).
struct Verdict {
  bool independent = false;
  enum class Why {
    SameProcess,        ///< Same pid: program order.
    MayViolate,         ///< An operand may record a model violation.
    CrashBudget,        ///< Two crashes draw on one crash budget.
    RegisterConflict,   ///< Write/write or write/read of one register.
    ChannelConflict,    ///< Send feeds the receive's FIFO channel.
    CrashCommutes,      ///< Crash vs another process's step.
    DisjointFootprints, ///< Nothing shared: commutes in every state.
  };
  Why why = Why::DisjointFootprints;
  int reg = -1;  ///< The conflicting register (RegisterConflict only).
};

/// Decides independence from footprints alone. Symmetric in its arguments.
/// A pair with a crash operand is decided from pid, crash and may_violate
/// alone, so the explorer builds a crash's peers without their register and
/// channel fields.
[[nodiscard]] Verdict classify(const Footprint& a, const Footprint& b);

/// Human-readable justification for a verdict. `registers` resolves the
/// conflicting register's name; pass the protocol's table (an empty table
/// falls back to the bare index).
[[nodiscard]] std::string render_reason(
    const Verdict& v, const std::vector<ir::RegisterDecl>& registers);

/// One flattened builder op: its footprint plus a stable rendering such as
/// "p0 write 'A0'" or "p1 snapshot {'A0','A1'}" for reports and goldens.
struct OpSite {
  Footprint fp;
  std::string label;
};

/// One classified cross-process pair; `a`/`b` index `Report::ops`.
struct OpPair {
  int a = -1;
  int b = -1;
  Verdict verdict;
};

/// The full pairwise classification of a protocol's flattened op list.
struct Report {
  std::vector<OpSite> ops;    ///< Ordered by (pid, program position).
  std::vector<OpPair> pairs;  ///< Every cross-process pair, a < b.
  long independent = 0;       ///< How many pairs are independent.
};

/// Footprint of a single IR op (Loop bodies are walked by `analyze`; pass
/// leaf ops here). Exposed for the soundness tests.
[[nodiscard]] Footprint footprint(const ir::ProtocolIR& p, int pid,
                                  const ir::Instr& op);

/// Flattens every process body (loop and round bodies inline, each op once
/// — trip counts do not affect pairwise classification) and classifies
/// every cross-process pair.
[[nodiscard]] Report analyze(const ir::ProtocolIR& p);

/// contended[r] ⇔ some cross-process op pair has a register conflict on r
/// (decided on raw footprints, before the may-violate veto). The
/// `static-interference` lint rule flags bounded registers that are *not*
/// contended: their width claim is vacuous under contention.
[[nodiscard]] std::vector<bool> contended_registers(const Report& r,
                                                    std::size_t num_registers);

}  // namespace bsr::analysis::itf
