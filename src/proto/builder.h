// Single-source protocol builder: one coroutine body, two interpreters.
//
// A protocol body is written once against the per-process handle `P` and the
// world-building context `Proto`. In *execute* mode the same ops drive
// `sim::Sim` exactly as a hand-rolled `sim::Env` body would — every
// `co_await p.read(...)` is one atomic step. In *reflect* mode no simulator
// exists: every op awaitable is already ready, so the whole coroutine (and
// any nested `sim::Task<T>` subroutines) runs to completion synchronously in
// a single resume, and each op appends the corresponding `ir::Instr` to the
// process's static IR instead of touching shared state. `ProtocolSpec::
// describe` hooks are therefore *derived* from the executable body rather
// than hand-transcribed, which removes the mirror-drift class of bugs the
// `--mode both` cross-validator previously existed to catch (it now
// cross-checks the two interpreters of one description instead).
//
// Reflection runs the body *solo*: reads return the last value this
// reflection tracked for the register (initially the declared content, ⊥
// for input/bottom registers), so data-dependent control flow takes the
// path a solo execution would. Control flow the solo path would skip — or
// whose trip count the IR must bound differently — is expressed through the
// combinators (`loop_until`, `repeat`, `when`, `serve`, `round`, `flush`,
// `recv_then`), each of which executes natively in execute mode and emits
// the matching structured instruction in reflect mode.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/static/ir.h"
#include "sim/sim.h"
#include "util/value.h"

namespace bsr::proto {

namespace ir = bsr::analysis::ir;

/// Reflect-mode state: the IR under construction, the instruction sink
/// stack (combinators push a nested body and pop it back as a structured
/// instruction), and the per-register tracked content driving dummy reads.
struct ReflectCtx {
  ir::ProtocolIR ir;
  int n = 0;
  std::vector<Value> store;  ///< Last tracked content per register.
  std::vector<std::vector<ir::Instr>*> sinks;

  void emit(ir::Instr i) { sinks.back()->push_back(std::move(i)); }
};

/// Result of one `loop_until` body iteration.
enum class LoopCtl { Continue, Break };

/// While an instance is alive (per thread), reflect-mode reads and
/// snapshots yield deterministically perturbed values instead of the
/// tracked store contents. Reflection is supposed to emit the same IR
/// regardless of what reads return — data-dependent *structure* must go
/// through the combinators — so re-reflecting a body under this guard and
/// diffing the two IRs detects bodies whose shape leaks through native
/// control flow (the `loop-shape` lint rule). Nestable; not a lock: two
/// threads reflecting concurrently each see their own flag.
class ScopedReadPerturbation {
 public:
  ScopedReadPerturbation() noexcept;
  ~ScopedReadPerturbation();
  ScopedReadPerturbation(const ScopedReadPerturbation&) = delete;
  ScopedReadPerturbation& operator=(const ScopedReadPerturbation&) = delete;
};

/// True while at least one ScopedReadPerturbation is alive on this thread.
[[nodiscard]] bool read_perturbation_active() noexcept;

/// Awaitable for one builder op: wraps a live `sim::OpAwaiter` in execute
/// mode; already-ready with a synthesized result in reflect mode.
class OpStep {
 public:
  explicit OpStep(sim::OpAwaiter inner) noexcept
      : ready_(false), inner_(std::move(inner)) {}
  explicit OpStep(sim::OpResult reflected) noexcept
      : ready_(true), inner_(nullptr, {}), result_(std::move(reflected)) {}

  bool await_ready() const noexcept { return ready_; }
  template <class Promise>
  void await_suspend(std::coroutine_handle<Promise> h) {
    inner_.await_suspend(h);
  }
  sim::OpResult await_resume() {
    return ready_ ? std::move(result_) : inner_.await_resume();
  }

 private:
  bool ready_;
  sim::OpAwaiter inner_;
  sim::OpResult result_;
};

/// Per-process handle a protocol body runs against. Copyable and passed
/// *by value* into coroutine bodies (coroutine parameters are copied into
/// the frame, so the handle outlives any suspension of the body).
class P {
 public:
  P() = default;

  /// Wraps a live simulator Env in an execute-mode handle, for protocol
  /// subroutines invoked from legacy Env-based coroutines.
  [[nodiscard]] static P exec(sim::Env& env) noexcept {
    P p;
    p.env_ = &env;
    return p;
  }

  [[nodiscard]] bool reflecting() const noexcept { return rctx_ != nullptr; }
  [[nodiscard]] sim::Pid pid() const {
    return reflecting() ? pid_ : env_->pid();
  }
  [[nodiscard]] int n() const { return reflecting() ? rctx_->n : env_->n(); }

  // --- Atomic ops (co_await each; one simulator step in execute mode) ------

  /// Atomic read. Reflect: emits `read(reg)`, yields the tracked content.
  [[nodiscard]] OpStep read(int reg) const;
  /// Atomic write. `vals` is the static value-set annotation the IR carries
  /// for this write (e.g. `ValueExpr::range(0, 1)` for an alternating bit).
  [[nodiscard]] OpStep write(int reg, Value v, ir::ValueExpr vals) const;
  /// Atomic snapshot. Reflect: yields the vector of tracked contents.
  [[nodiscard]] OpStep snapshot(std::vector<int> regs) const;
  /// Immediate snapshot (write own register + snapshot, one step).
  [[nodiscard]] OpStep write_snapshot(int own, Value v, std::vector<int> regs,
                                      ir::ValueExpr vals) const;
  /// Asynchronous FIFO send; `payload` annotates the IR payload set.
  [[nodiscard]] OpStep send(sim::Pid to, Value v, ir::ValueExpr payload) const;
  /// Blocking receive. Reflect: emits `recv(from)` and yields ⊥ — use
  /// `recv_then` when the handler cannot survive a ⊥ payload.
  [[nodiscard]] OpStep recv(sim::Pid from = -1) const;

  // --- Combinators (structured control flow visible to the IR) --------------

  /// A data-dependent loop: runs `body` until it returns Break. `iters` is
  /// the trip-count interval the IR declares (reflect runs the body once).
  [[nodiscard]] sim::Task<void> loop_until(
      ir::Count iters, std::function<sim::Task<LoopCtl>()> body) const;
  /// A fixed-count loop the IR keeps *rolled* as `loop(exactly(count))`.
  /// (A native `for` works too — reflect then unrolls it, executing every
  /// iteration against the tracked store.)
  [[nodiscard]] sim::Task<void> repeat(
      long count, std::function<sim::Task<void>()> body) const;
  /// A conditional block, `loop[0,1]` in the IR. Reflect runs the body
  /// regardless of `cond`, so every op on the branch is audited.
  [[nodiscard]] sim::Task<void> when(
      bool cond, std::function<sim::Task<void>()> body) const;
  /// An unbounded serve-forever loop, a serve-marked `loop[0,∞]` in the IR
  /// (exempt from the static-termination rule by declaration). In execute
  /// mode the body repeats until the coroutine is externally crash-stopped
  /// or an exception unwinds it; reflect runs it once.
  [[nodiscard]] sim::Task<void> serve(
      std::function<sim::Task<void>()> body) const;
  /// One communication round (`round` instruction wrapping the body). In
  /// execute mode each entry is reported to the simulator, which checks it
  /// against the budget declared via `Proto::max_rounds`.
  [[nodiscard]] sim::Task<void> round(
      std::function<sim::Task<void>()> body) const;
  /// Drains an outbox of (dst, payload) messages via `send`. The IR cannot
  /// see the dynamic queue, so `dsts` declares the possible destinations:
  /// reflect emits `maybe{send(dst)}` per declared destination.
  [[nodiscard]] sim::Task<void> flush(
      std::deque<std::pair<sim::Pid, Value>>& outbox,
      std::vector<sim::Pid> dsts, ir::ValueExpr payload) const;
  /// Receives one message and hands it to `handler`. Reflect emits
  /// `recv(from)` and skips the handler (which would otherwise run on a ⊥
  /// dummy payload).
  [[nodiscard]] sim::Task<void> recv_then(
      std::function<void(const sim::OpResult&)> handler,
      sim::Pid from = -1) const;

 private:
  friend class Proto;
  sim::Env* env_ = nullptr;
  ReflectCtx* rctx_ = nullptr;
  sim::Pid pid_ = -1;  ///< Reflect-mode pid (execute asks the Env).
  /// 1-based count of `round` entries through THIS handle. Lives on the
  /// handle (not the Env), so it is coroutine-frame state: a frame that
  /// Sim::rewind keeps keeps its count, and a rebuilt frame recounts while
  /// the simulator suppresses the duplicate note_round calls of the
  /// fast-forward. A step that noted a round is never reused after a
  /// rewind, so re-executing it resumes the body and notes the round again.
  mutable long rounds_entered_ = 0;
};

/// World-building context: declares registers/channels and spawns process
/// bodies, against either a live `sim::Sim` (execute) or an IR under
/// construction (reflect).
class Proto {
 public:
  /// Reflect-mode configuration: the process count the bodies will see and
  /// the parameter instantiation recorded in the IR.
  struct ReflectOptions {
    int n = 0;
    ir::ParamEnv params;
  };

  /// Execute mode: declarations and spawns forward to `sim`.
  explicit Proto(sim::Sim& sim) : sim_(&sim) {}
  /// Reflect mode: declarations and spawns build an `ir::ProtocolIR`.
  explicit Proto(ReflectOptions opts);

  [[nodiscard]] bool reflecting() const noexcept { return rctx_ != nullptr; }
  [[nodiscard]] int n() const;

  // --- Register table (same indices in both modes) --------------------------

  int add_register(std::string name, sim::Pid writer, int width_bits,
                   Value init);
  /// Write-once unbounded input register I_{writer}, initially ⊥.
  int add_input_register(std::string name, sim::Pid writer);
  /// Bounded register reserving one code point for ⊥ (initially ⊥).
  int add_bottom_register(std::string name, sim::Pid writer, int width_bits,
                          bool write_once = false);

  // --- World structure (both modes) -----------------------------------------
  // Reflect mode records these into the IR; execute mode routes them into
  // the simulator, where they are enforced dynamically (Topology and Round
  // violations). The first `channel` call supersedes any SimOptions::edges
  // preset, so a builder protocol has a single topology source.

  /// Declares one directed link of the topology with a payload budget (the
  /// width is audited statically; the edge is enforced dynamically).
  void channel(int src, int dst, int width_bits = sim::kUnbounded);
  /// Declares the per-process round budget, enforced against `P::round`.
  void max_rounds(long rounds);

  // --- Processes ------------------------------------------------------------

  /// Installs `body` for process `pid`. Execute: forwards to `Sim::spawn`.
  /// Reflect: runs the body to completion right here (all builder
  /// awaitables are ready) and appends the emitted instruction sequence as
  /// the process's IR. Throws UsageError if the body suspends on a
  /// non-builder awaitable while reflecting.
  void spawn(sim::Pid pid, std::function<sim::Proc(P)> body);

  /// The reflected IR; call once, after every spawn (reflect mode only).
  [[nodiscard]] ir::ProtocolIR take_ir() &&;

 private:
  sim::Sim* sim_ = nullptr;
  std::unique_ptr<ReflectCtx> rctx_;
};

}  // namespace bsr::proto
