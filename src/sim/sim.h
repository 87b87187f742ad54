// The simulation world: registers, channels, processes.
//
// `Sim` owns the shared state of one simulated system and the process
// coroutines. It exposes step-level control (which process executes its next
// atomic operation) to schedulers; it performs *no* scheduling policy itself.
//
// Model enforcement happens here: SWMR ownership, declared register bit
// widths, write-once registers, and channel topology are all checked on
// every executed operation, and violations throw ModelError. An algorithm
// therefore cannot accidentally use more communication power than the model
// variant it claims to run in. Alternatively, `set_violation_collecting`
// switches enforcement to collect-and-continue: violations become
// ModelEvents (consumed by the src/analysis conformance analyzer) and the
// run proceeds, so one exploration can report every violation per schedule.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/coro.h"
#include "sim/op.h"
#include "util/errors.h"
#include "util/value.h"

namespace bsr::sim {

/// Width of an unbounded register.
inline constexpr int kUnbounded = -1;

/// A single-writer multi-reader shared register.
struct Register {
  std::string name;
  Pid writer = -1;        ///< Owning writer; -1 allows any writer (MWMR, for tests).
  int width_bits = kUnbounded;
  bool write_once = false;  ///< Input registers I_i: one write, ever.
  /// Bounded register that reserves one of its 2^b states for ⊥ (so the
  /// writable integers are 0 … 2^b − 2, and the initial value may be ⊥).
  bool allows_bottom = false;
  Value value;

  // Accounting (for benches reporting actual register usage).
  long writes = 0;
  long reads = 0;
  int max_bits_written = 0;
};

/// A recorded model-rule violation. Produced instead of a ModelError throw
/// when violation collecting is enabled (see Sim::set_violation_collecting):
/// the violating operation still takes effect, the event is logged, and the
/// process keeps running, so exhaustive exploration can gather every
/// violation along a schedule instead of aborting on the first. The
/// analysis layer (src/analysis) maps these onto stable diagnostic rule ids
/// (docs/ANALYSIS.md).
struct ModelEvent {
  enum class Kind {
    Swmr,       ///< Write to a register owned by another process.
    Width,      ///< Write exceeding a bounded register's declared bit width.
    WriteOnce,  ///< Second write to a write-once register.
    Bottom,     ///< Write into the code point reserved for ⊥.
    Topology,   ///< Send on a link absent from the channel topology.
    Atomicity,  ///< More than one register primitive in a single step.
    Round,      ///< Round entered beyond the declared max_rounds budget.
  };
  Kind kind = Kind::Swmr;
  Pid pid = -1;
  int reg = -1;      ///< Register index (-1 for channel/step-level events).
  long step_index = 0;  ///< total_steps() when the violating op executed.
  std::string message;
};

[[nodiscard]] std::string to_string(ModelEvent::Kind k);

/// Configuration for spawning a Sim.
struct SimOptions {
  int n = 0;                 ///< Number of processes.
  bool record_trace = false; ///< Keep a full TraceEvent log.
  /// Channel topology: edges[i] lists the pids i may send to. Empty means
  /// the complete graph (every process may send to every other).
  std::vector<std::vector<Pid>> edges;
  /// Enforce the paper's base model literally: at most one register owned
  /// by each process (§2 grants one SWMR register per process; several
  /// registers are a convenience justified by constant-factor emulation).
  /// Write-once input registers are exempt (the model adds them separately).
  bool single_register_per_process = false;
};

class Sim;

/// Per-process handle given to protocol coroutines; produces op awaitables.
///
/// Env objects are owned by the Sim and remain valid for the lifetime of the
/// process coroutine.
class Env {
 public:
  [[nodiscard]] Pid pid() const noexcept { return ctl_->pid; }
  [[nodiscard]] int n() const noexcept;
  [[nodiscard]] long steps() const noexcept { return ctl_->steps; }

  /// Atomic read of register `reg`.
  [[nodiscard]] OpAwaiter read(int reg) const {
    OpRequest r;
    r.kind = OpKind::Read;
    r.reg = reg;
    return OpAwaiter(ctl_, std::move(r));
  }

  /// Atomic write of `v` to register `reg`.
  [[nodiscard]] OpAwaiter write(int reg, Value v) const {
    OpRequest r;
    r.kind = OpKind::Write;
    r.reg = reg;
    r.value = std::move(v);
    return OpAwaiter(ctl_, std::move(r));
  }

  /// Atomic snapshot of the registers in `regs` (result: vector of contents).
  [[nodiscard]] OpAwaiter snapshot(std::vector<int> regs) const {
    OpRequest r;
    r.kind = OpKind::Snapshot;
    r.regs = std::move(regs);
    return OpAwaiter(ctl_, std::move(r));
  }

  /// Immediate snapshot: atomically write `v` into `own` then snapshot
  /// `regs`. Concurrent WriteSnaps may be executed as one block by the
  /// scheduler, in which case all block members see each other's writes.
  [[nodiscard]] OpAwaiter write_snapshot(int own, Value v,
                                         std::vector<int> regs) const {
    OpRequest r;
    r.kind = OpKind::WriteSnap;
    r.reg = own;
    r.value = std::move(v);
    r.regs = std::move(regs);
    return OpAwaiter(ctl_, std::move(r));
  }

  /// Asynchronous FIFO send to process `to`.
  [[nodiscard]] OpAwaiter send(Pid to, Value v) const {
    OpRequest r;
    r.kind = OpKind::Send;
    r.peer = to;
    r.value = std::move(v);
    return OpAwaiter(ctl_, std::move(r));
  }

  /// Blocking receive. `from` = -1 receives from any sender (the scheduler
  /// picks the channel); otherwise only from that sender. The result's
  /// `from` field names the actual sender.
  [[nodiscard]] OpAwaiter recv(Pid from = -1) const {
    OpRequest r;
    r.kind = OpKind::Recv;
    r.peer = from;
    return OpAwaiter(ctl_, std::move(r));
  }

  /// Reports that this process is entering its `idx`-th communication round
  /// (1-based); the Sim checks it against the declared `set_max_rounds`
  /// budget. Not an atomic step — called from inside protocol code between
  /// ops (the proto builder's `P::round` combinator does this).
  void note_round(long idx) const;

 private:
  friend class Sim;
  Env(Sim* sim, ProcCtl* ctl) noexcept : sim_(sim), ctl_(ctl) {}
  Sim* sim_;
  ProcCtl* ctl_;
};

/// The simulated world. See file comment.
class Sim {
 public:
  explicit Sim(SimOptions opts);
  explicit Sim(int n) : Sim(SimOptions{.n = n}) {}

  Sim(const Sim&) = delete;
  Sim& operator=(const Sim&) = delete;

  [[nodiscard]] int n() const noexcept { return static_cast<int>(ctls_.size()); }

  // --- World construction -------------------------------------------------

  /// Declares a register; returns its index. `writer` = -1 permits any
  /// writer. `width_bits` = kUnbounded permits any Value; otherwise only
  /// u64 values of at most that many bits are accepted, and `init` must fit.
  int add_register(std::string name, Pid writer, int width_bits, Value init);

  /// Declares a write-once unbounded input register I_{writer} (initially ⊥).
  int add_input_register(std::string name, Pid writer);

  /// Declares a bounded register of `width_bits` bits one of whose 2^b
  /// states encodes ⊥: initial content is ⊥ and writable integers are
  /// 0 … 2^b − 2. This models the paper's 3-state (⊥/0/1) registers, which
  /// occupy 2 bits. `write_once` restricts it to a single write.
  int add_bottom_register(std::string name, Pid writer, int width_bits,
                          bool write_once = false);

  /// Installs the coroutine body for process `pid`. Must be called exactly
  /// once per pid before stepping. The body receives this process's Env.
  void spawn(Pid pid, const std::function<Proc(Env&)>& body);

  /// Attaches caller-owned context (e.g. a white-box diagnostic the
  /// protocol bodies write into) to THIS world, keeping it alive as long as
  /// the Sim. Explorer factories must use this instead of capturing a
  /// shared object: the parallel explorer builds one Sim per subtree job and
  /// runs them concurrently, so anything shared across factory calls would
  /// be raced on. Visitors read it back via `user_data<T>()`.
  void set_user_data(std::shared_ptr<void> data) noexcept {
    user_data_ = std::move(data);
  }
  template <class T>
  [[nodiscard]] T* user_data() const noexcept {
    return static_cast<T*>(user_data_.get());
  }

  // --- Step-level control (used by schedulers) ------------------------------

  /// True if `pid` is alive (spawned, not crashed, not terminated).
  [[nodiscard]] bool alive(Pid pid) const;

  /// True if `pid` is alive and its pending op can execute now. Register ops
  /// are always executable; Recv needs a matching queued message.
  [[nodiscard]] bool enabled(Pid pid) const;

  /// For a pid blocked on Recv: the senders with queued matching messages.
  [[nodiscard]] std::vector<Pid> recv_choices(Pid pid) const;

  /// The pending atomic op `pid` would execute on its next step
  /// (OpKind::Start before the first). Exposed so the explorer's
  /// partial-order reduction can derive the op's footprint without
  /// executing it (src/sim/explore.cpp, detail::choice_footprint).
  [[nodiscard]] const OpRequest& pending_request(Pid pid) const {
    check_pid(pid);
    return ctls_[static_cast<std::size_t>(pid)].ctl.pending;
  }

  /// Whether stepping `pid` now may report a model violation (record one in
  /// collect mode, throw otherwise): its pending write breaks a register
  /// rule (checked by the same code do_write reports from) or names no
  /// register, its pending send has no link or no destination, or a round
  /// budget is declared, whose rounds are entered inside the resumed body
  /// where the pending op does not show them. The explorer's partial-order
  /// reduction orders such steps (detail::choice_footprint), and asks for
  /// every footprint it builds, so the common cases stay inline.
  [[nodiscard]] bool step_may_violate(Pid pid) const {
    if (max_rounds_ >= 0) return true;
    const OpRequest& req = pending_request(pid);
    if (req.kind == OpKind::Send) {
      return req.peer < 0 || req.peer >= n() || !may_send(pid, req.peer);
    }
    return (req.kind == OpKind::Write || req.kind == OpKind::WriteSnap) &&
           write_breaks_rules(pid, req.reg, req.value);
  }

  /// Executes `pid`'s pending op and resumes it until its next op (or
  /// termination). For Recv with multiple available senders, `recv_from`
  /// picks the channel (-1 = lowest pid). Throws if not enabled, and
  /// rethrows any unhandled protocol exception.
  void step(Pid pid, Pid recv_from = -1);

  /// Executes the pending WriteSnap ops of all of `pids` as one concurrency
  /// block: all writes apply first, then every member receives the same
  /// snapshot. All members must have pending WriteSnap ops over the same
  /// register set.
  void step_block(const std::vector<Pid>& pids);

  /// Crash-stops a process: it takes no further steps, ever.
  void crash(Pid pid);

  // --- Declared topology and round budget (builder route) -------------------

  /// Declares one directed channel link. The first call switches the
  /// topology from SimOptions::edges (or the default complete graph) to
  /// declared-links-only, so the proto builder's `channel` declarations are
  /// the single source of truth for sends. Must precede the first step.
  void declare_edge(Pid from, Pid to);

  /// Declares the per-process communication-round budget (`rounds` >= 1):
  /// a process entering round `max_rounds + 1` violates the Round model
  /// rule. Must precede the first step. -1 (the default) means unlimited.
  void set_max_rounds(long rounds);
  [[nodiscard]] long max_rounds() const noexcept { return max_rounds_; }

  /// Round-entry hook (see Env::note_round). Ignored while a rebuilt
  /// coroutine is fast-forwarded (the entry was already checked when it
  /// first executed). Under a declared budget it also marks the step in
  /// flight as never reusable after a rewind (see `rewind`), so
  /// re-executing that step resumes the body and checks the entry again.
  void note_round(Pid pid, long idx);

  // --- Checkpointing (incremental backtracking for the explorer) -----------

  /// Starts recording an undo log so that `rewind` can step the world
  /// backwards. Must be enabled before the first step/crash (the log must
  /// cover every action since the initial state, because a coroutine that
  /// has to be rebuilt is fast-forwarded from the start through its
  /// recorded step results). Disabling clears the log, after first
  /// rebuilding every coroutine a rewind left ahead of its process's
  /// logical position, so later steps resume frames that are in sync.
  ///
  /// Checkpointing is incompatible with `step_block` (no undo support).
  void set_checkpointing(bool on);
  [[nodiscard]] bool checkpointing() const noexcept { return checkpointing_; }

  /// Number of recorded actions (steps + crashes) that `rewind` can undo.
  [[nodiscard]] std::size_t history_size() const noexcept {
    return undo_.size();
  }

  // --- Incremental state hashing (sim/zobrist.h) ----------------------------

  /// Starts maintaining a Zobrist hash of the full configuration (register
  /// contents, per-process result histories, pending channels, crashes,
  /// collected violations), updated in O(1) per step and per rewound
  /// action. Requires checkpointing, must precede the first step, and
  /// freezes the register table.
  void set_state_hashing(bool on);
  [[nodiscard]] bool state_hashing() const noexcept { return hashing_; }

  /// The hash of the current configuration.
  [[nodiscard]] std::uint64_t state_hash() const;

  // --- Model conformance (instrumentation for src/analysis) ----------------

  /// Switches model-rule enforcement from throw-on-first-violation to
  /// collect-and-continue: violations of SWMR ownership, declared widths,
  /// write-once discipline, the ⊥ code point, channel topology, and
  /// step-atomicity are appended to `model_violations()` (and the operation
  /// is applied anyway) instead of throwing ModelError and crash-stopping
  /// the process. Enable before the first step; the event log participates
  /// in `rewind`, so each point of an exploration sees exactly the
  /// violations on its own path.
  void set_violation_collecting(bool on) noexcept {
    collect_violations_ = on;
  }
  [[nodiscard]] bool violation_collecting() const noexcept {
    return collect_violations_;
  }

  /// The violations recorded on the current execution path (collect mode).
  [[nodiscard]] const std::vector<ModelEvent>& model_violations()
      const noexcept {
    return violations_;
  }

  /// Undoes the last `k` recorded actions (steps and crashes), restoring
  /// registers, channels, traces, accounting, and process control state.
  /// A process that stepped within the undone suffix keeps its live
  /// coroutine frame, which is now ahead of its logical position: each
  /// undone step remembers the result the frame consumed and the control
  /// state it reached, and its executed request becomes pending again.
  /// When `step` re-executes such a step and it yields the same result
  /// (value and sender), the remembered state is restored without resuming
  /// the body. At the first differing result, the coroutine is rebuilt
  /// from its body, fast-forwarded through the kept prefix of recorded
  /// results, and resumed with the new one. Protocols are deterministic
  /// state machines, so both paths reach the state a never-rewound Sim
  /// reaches, without re-executing (or re-validating) any shared-memory
  /// operation of the prefix.
  void rewind(std::size_t k);

  // --- Inspection -----------------------------------------------------------

  [[nodiscard]] bool terminated(Pid pid) const;
  [[nodiscard]] bool crashed(Pid pid) const;
  /// Decision (co_returned value) of a terminated process.
  [[nodiscard]] const Value& decision(Pid pid) const;
  [[nodiscard]] long steps(Pid pid) const;
  [[nodiscard]] long total_steps() const noexcept { return total_steps_; }

  /// Direct (non-step) inspection of a register's content.
  [[nodiscard]] const Value& peek(int reg) const;
  [[nodiscard]] const Register& register_info(int reg) const;
  [[nodiscard]] int num_registers() const noexcept {
    return static_cast<int>(regs_.size());
  }

  /// Concatenated rendering of the given registers' contents: the "word"
  /// w_ℓ from the §4 pigeonhole argument.
  [[nodiscard]] std::string register_word(const std::vector<int>& regs) const;

  /// Largest bit width actually written to any bounded register.
  [[nodiscard]] int max_bounded_bits_used() const;

  [[nodiscard]] const std::vector<TraceEvent>& trace() const noexcept {
    return trace_;
  }

  /// Number of undelivered messages queued from `from` to `to`.
  [[nodiscard]] std::size_t channel_size(Pid from, Pid to) const;

  /// The undelivered messages queued from `from` to `to`, oldest first.
  [[nodiscard]] const std::deque<Value>& channel(Pid from, Pid to) const;

  /// Messages delivered (received) so far on the `from`->`to` channel along
  /// the current path: the absolute index of the queue's head message.
  [[nodiscard]] long channel_delivered(Pid from, Pid to) const;

  /// `pid`'s recorded step results on the current path (checkpointing only).
  [[nodiscard]] const std::vector<OpResult>& result_log(Pid pid) const;

  /// Total messages ever sent (delivered or still queued).
  [[nodiscard]] long total_sends() const noexcept { return total_sends_; }

 private:
  /// A step that `rewind` undid but the process's live coroutine frame had
  /// already taken: the result the frame consumed and the control state
  /// that resume left behind.
  struct FrameStep {
    OpResult result;
    OpRequest pending;
    bool terminated = false;
    Value decision;
    bool reusable = true;  ///< See UndoRecord::reusable.
  };

  struct ProcSlot {
    ProcCtl ctl;
    std::unique_ptr<Env> env;
    // The body is stored before being invoked: a lambda coroutine keeps
    // referring to its closure object, so the callable must outlive the
    // coroutine frame.
    std::function<Proc(Env&)> body;
    Proc coro;
    bool spawned = false;
    /// The undone steps the frame is ahead by, the next one to re-execute
    /// on top. Empty whenever the frame is at the logical position.
    std::vector<FrameStep> ahead;
  };

  /// One undoable action, recorded while checkpointing.
  struct UndoRecord {
    enum class Kind { Step, Crash };
    Kind kind = Kind::Step;
    Pid pid = -1;
    OpRequest request;          ///< The executed op; pending again on rewind.
    Value old_value;            ///< Write/WriteSnap: previous register content.
    int old_max_bits = 0;       ///< Previous max_bits_written of that register.
    bool traced = false;        ///< A TraceEvent was recorded for this step.
    /// False once the step's resume noted a round under a declared budget:
    /// that check is the one effect a resume has on the Sim, so a rewound
    /// frame must not skip it by reusing this step.
    bool reusable = true;
    /// Size of the violation log when this action started (collect mode):
    /// rewinding truncates the log back to exactly this count.
    std::size_t old_violations = 0;
  };

  [[nodiscard]] Register& reg_at(int reg);
  [[nodiscard]] const Register& reg_at(int reg) const;
  void check_pid(Pid pid) const {
    usage_check(pid >= 0 && pid < n(),
                [&] { return "bad pid " + std::to_string(pid); });
  }
  /// Whether a write of `v` into `reg` by `pid` names no register or breaks
  /// a register rule (step_may_violate's slow path).
  [[nodiscard]] bool write_breaks_rules(Pid pid, int reg,
                                        const Value& v) const;
  /// Reports a model-rule violation: records a ModelEvent in collect mode,
  /// throws ModelError otherwise.
  void violate(ModelEvent::Kind kind, Pid pid, int reg, std::string msg);
  [[nodiscard]] bool may_send(Pid from, Pid to) const;
  /// Executes the pending request of `pid` into its result slot.
  void execute(ProcCtl& ctl, Pid recv_from);
  void do_write(Pid pid, int reg, const Value& v);
  [[nodiscard]] Value do_snapshot(const std::vector<int>& regs);
  void resume(ProcCtl& ctl);
  /// Fills an UndoRecord from the op about to be executed (pre-state).
  [[nodiscard]] UndoRecord capture_undo(const ProcCtl& ctl) const;
  /// Reverts the shared-state effects of one executed step, whose result
  /// was `result`.
  void undo_shared(const UndoRecord& u, const OpResult& result);
  /// Recreates `pid`'s coroutine and fast-forwards it through its recorded
  /// step results, dropping the frame steps a rewind left ahead. Runs only
  /// when a re-executed step's result differs from the one the frame
  /// consumed (see `rewind`), or when checkpointing is switched off.
  void rebuild_coroutine(Pid pid);

  SimOptions opts_;
  std::vector<ProcSlot> ctls_;
  std::vector<Register> regs_;
  // chan_[from * n + to]
  std::vector<std::deque<Value>> chan_;
  std::vector<TraceEvent> trace_;
  long total_steps_ = 0;
  long total_sends_ = 0;
  bool adding_input_register_ = false;
  bool collect_violations_ = false;
  std::vector<ModelEvent> violations_;
  /// Register primitives executed by the step in flight — the
  /// step-atomicity counter: a step may perform at most one (two for the
  /// immediate-snapshot primitive), and the kernel asserts it stays that
  /// way under future changes.
  int reg_ops_in_step_ = 0;
  bool checkpointing_ = false;
  std::vector<UndoRecord> undo_;
  /// result_log_[pid][j] = result delivered to pid's j-th executed step.
  std::vector<std::vector<OpResult>> result_log_;
  /// Messages delivered per channel (same from*n+to indexing as chan_):
  /// gives queued messages stable absolute slot indices for hashing.
  std::vector<long> chan_popped_;
  bool hashing_ = false;
  /// XOR of the zobrist::*_component of every fact of the current
  /// configuration. XOR is its own inverse, so one toggle both applies and
  /// undoes a fact.
  std::uint64_t hash_ = 0;
  /// Set while rebuild_coroutine fast-forwards a body through results whose
  /// steps already ran live, so the one non-step side channel into the Sim
  /// (note_round) stays quiet.
  bool rebuilding_ = false;
  bool edges_declared_ = false;  ///< declare_edge overrode SimOptions::edges.
  long max_rounds_ = -1;
  std::shared_ptr<void> user_data_;  ///< Caller context; see set_user_data.
};

}  // namespace bsr::sim
