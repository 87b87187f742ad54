#include "sim/sim.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "sim/zobrist.h"

namespace bsr::sim {

namespace {

/// The register rules one write of `v` into `r` by `pid` must keep, in
/// report order: calls `broken(kind, message)` for each rule the write
/// breaks, where `message()` builds the report's text. do_write reports
/// from it and write_breaks_rules asks it, so each rule is written once.
template <class Broken>
void check_write(const Register& r, Pid pid, const Value& v,
                 const Broken& broken) {
  using Kind = ModelEvent::Kind;
  if (r.writer != -1 && r.writer != pid) {
    broken(Kind::Swmr, [&] {
      return "process " + std::to_string(pid) + " wrote to register '" +
             r.name + "' owned by process " + std::to_string(r.writer);
    });
  }
  if (r.write_once && r.writes != 0) {
    broken(Kind::WriteOnce, [&] {
      return "second write to write-once register '" + r.name + "'";
    });
  }
  if (r.width_bits == kUnbounded) return;
  if (!v.is_u64()) {
    broken(Kind::Width, [&] {
      return "non-integer value " + v.str() +
             " written to bounded register '" + r.name + "'";
    });
    return;
  }
  const int w = v.bit_width();
  // A register with a ⊥ state spends one of its 2^b codes on ⊥, leaving
  // integers 0 … 2^b − 2; a plain bounded register holds 0 … 2^b − 1.
  const std::uint64_t limit =
      (std::uint64_t{1} << r.width_bits) - (r.allows_bottom ? 2 : 1);
  if (w > r.width_bits) {
    broken(Kind::Width, [&] {
      return "value " + v.str() + " (" + std::to_string(w) +
             " bits) overflows register '" + r.name + "' of width " +
             std::to_string(r.width_bits);
    });
  } else if (v.as_u64() > limit) {
    broken(Kind::Bottom, [&] {
      return "value " + v.str() +
             " escapes into the ⊥ code point of register '" + r.name +
             "' of width " + std::to_string(r.width_bits) +
             " (one state reserved for ⊥)";
    });
  }
}

}  // namespace

std::string to_string(OpKind k) {
  switch (k) {
    case OpKind::Start: return "start";
    case OpKind::Read: return "read";
    case OpKind::Write: return "write";
    case OpKind::Snapshot: return "snapshot";
    case OpKind::WriteSnap: return "write_snapshot";
    case OpKind::Send: return "send";
    case OpKind::Recv: return "recv";
  }
  return "?";
}

std::string to_string(ModelEvent::Kind k) {
  switch (k) {
    case ModelEvent::Kind::Swmr: return "swmr";
    case ModelEvent::Kind::Width: return "width";
    case ModelEvent::Kind::WriteOnce: return "write_once";
    case ModelEvent::Kind::Bottom: return "bottom";
    case ModelEvent::Kind::Topology: return "topology";
    case ModelEvent::Kind::Atomicity: return "atomicity";
    case ModelEvent::Kind::Round: return "round";
  }
  return "?";
}

int Env::n() const noexcept { return sim_->n(); }

void Env::note_round(long idx) const { sim_->note_round(ctl_->pid, idx); }

Sim::Sim(SimOptions opts) : opts_(std::move(opts)) {
  usage_check(opts_.n >= 1, "Sim: need at least one process");
  usage_check(opts_.edges.empty() ||
                  static_cast<int>(opts_.edges.size()) == opts_.n,
              "Sim: topology must list out-neighbours for every process");
  ctls_.resize(static_cast<std::size_t>(opts_.n));
  for (int i = 0; i < opts_.n; ++i) ctls_[static_cast<std::size_t>(i)].ctl.pid = i;
  chan_.resize(static_cast<std::size_t>(opts_.n) * static_cast<std::size_t>(opts_.n));
  chan_popped_.assign(chan_.size(), 0);
}

int Sim::add_register(std::string name, Pid writer, int width_bits, Value init) {
  usage_check(writer == -1 || (writer >= 0 && writer < n()),
              "add_register: bad writer pid");
  usage_check(!hashing_,
              "add_register: the register table is frozen while state "
              "hashing is enabled");
  if (opts_.single_register_per_process && writer != -1 &&
      !adding_input_register_) {
    for (const Register& r : regs_) {
      model_check(r.writer != writer || r.write_once, [&] {
        return "single-register mode: process " + std::to_string(writer) +
               " already owns register '" + r.name + "'";
      });
    }
  }
  if (width_bits != kUnbounded) {
    usage_check(width_bits >= 1 && width_bits <= 63,
                "add_register: width must be in [1,63] or kUnbounded");
    model_check(init.is_u64() && init.bit_width() <= width_bits,
                "add_register '" + name + "': initial value " + init.str() +
                    " does not fit in " + std::to_string(width_bits) + " bits");
  }
  Register r;
  r.name = std::move(name);
  r.writer = writer;
  r.width_bits = width_bits;
  r.value = std::move(init);
  regs_.push_back(std::move(r));
  return static_cast<int>(regs_.size()) - 1;
}

int Sim::add_input_register(std::string name, Pid writer) {
  adding_input_register_ = true;
  const int idx = add_register(std::move(name), writer, kUnbounded, Value());
  adding_input_register_ = false;
  regs_.back().write_once = true;
  return idx;
}

int Sim::add_bottom_register(std::string name, Pid writer, int width_bits,
                             bool write_once) {
  usage_check(width_bits >= 1 && width_bits <= 63,
              "add_bottom_register: width must be in [1,63]");
  // Register the slot as unbounded (its initial content is ⊥), then flip on
  // the bounded-with-bottom enforcement flags.
  const int idx = add_register(std::move(name), writer, kUnbounded, Value());
  Register& r = regs_.back();
  r.width_bits = width_bits;
  r.allows_bottom = true;
  r.write_once = write_once;
  return idx;
}

void Sim::spawn(Pid pid, const std::function<Proc(Env&)>& body) {
  check_pid(pid);
  auto& slot = ctls_[static_cast<std::size_t>(pid)];
  usage_check(!slot.spawned, "spawn: process already spawned");
  slot.env = std::unique_ptr<Env>(new Env(this, &slot.ctl));
  slot.body = body;  // keep the closure alive for the coroutine's lifetime
  slot.coro = slot.body(*slot.env);
  usage_check(slot.coro.valid(), "spawn: body did not return a coroutine");
  slot.coro.bind(&slot.ctl);
  slot.spawned = true;
}

void Sim::recv_choices(Pid pid, std::vector<Pid>& out) const {
  out.clear();
  if (!alive(pid) || pending_request(pid).kind != OpKind::Recv) return;
  for (Pid from = 0; from < n(); ++from) {
    if (recv_ready(pid, from)) out.push_back(from);
  }
}

bool Sim::recv_ready(Pid pid, Pid from) const {
  if (from < 0 || from >= n()) return false;
  const Pid filter = pending_request(pid).peer;
  if (filter != -1 && from != filter) return false;
  return !chan_[chan_at(from, pid)].empty();
}

void Sim::step(Pid pid, Pid recv_from) {
  usage_check(enabled(pid), [&] {
    return "step: process " + std::to_string(pid) + " is not enabled";
  });
  ProcSlot& slot = ctls_[static_cast<std::size_t>(pid)];
  ProcCtl& ctl = slot.ctl;
  const auto j = static_cast<std::size_t>(ctl.steps);
  // A frame left ahead by `rewind` has taken this step already: the
  // process's pending request is the recorded one.
  const bool was_ahead = ahead(slot);
  const OpRequest& req = was_ahead ? slot.history[j].request : ctl.pending;
  if (checkpointing_) {
    const Register* w =
        req.kind == OpKind::Write || req.kind == OpKind::WriteSnap
            ? &reg_at(req.reg)
            : nullptr;
    undo_.push_back(UndoRecord{
        .pid = pid,
        .old_value = w != nullptr ? w->value : Value(),
        .old_max_bits = w != nullptr ? w->max_bits_written : 0,
        .traced = opts_.record_trace,
        .old_violations = violations_.size()});
  }
  reg_ops_in_step_ = 0;
  try {
    execute(ctl, req, recv_from);
  } catch (...) {
    if (checkpointing_) undo_.pop_back();
    ctl.crashed = true;  // a model-violating process takes no further steps
    throw;
  }
  // Step atomicity: one register primitive per step (two for the immediate
  // snapshot, which is write-then-snapshot by definition). The op kinds
  // above guarantee this today; the counter keeps it an *enforced*
  // invariant if execute() ever grows composite paths.
  if (collect_violations_) {
    const int allowed = req.kind == OpKind::WriteSnap ? 2 : 1;
    if (reg_ops_in_step_ > allowed) {
      violate(ModelEvent::Kind::Atomicity, pid, -1,
              "step of process " + std::to_string(pid) + " performed " +
                  std::to_string(reg_ops_in_step_) +
                  " register primitives (atomic steps allow " +
                  std::to_string(allowed) + ")");
    }
  }
  if (opts_.record_trace) trace_.push_back(TraceEvent{pid, req, ctl.result});
  // The frame that took this step before reuses it as it stands if it
  // consumed this result; otherwise the history is cut after the step and
  // the frame is rebuilt through the kept prefix and resumed below.
  bool reuse = false;
  if (checkpointing_) {
    if (!was_ahead) {
      slot.history.push_back(StepRecord{std::move(ctl.pending), ctl.result});
    } else {
      StepRecord& rec = slot.history[j];
      reuse = rec.reusable && rec.result.value == ctl.result.value &&
              rec.result.from == ctl.result.from;
      if (reuse) {
        stats_.reused += 1;
      } else {
        rec.result = std::move(ctl.result);
        rec.reusable = true;
        slot.history.resize(j + 1);
        rebuild_coroutine(pid);
        ctl.result = slot.history[j].result;
      }
    }
  }
  // The result history pins the coroutine state (bodies are deterministic),
  // so hashing it is how the "program counter" enters the state hash.
  if (hashing_) hash_ ^= zobrist::hist_component(pid, ctl.steps, ctl.result);
  ctl.steps += 1;
  total_steps_ += 1;
  if (!reuse) resume(slot);
}

void Sim::step_block(const std::vector<Pid>& pids) {
  usage_check(!pids.empty(), "step_block: empty block");
  usage_check(!checkpointing_,
              "step_block: not supported while checkpointing is enabled");
  const std::vector<int>* regset = nullptr;
  for (Pid pid : pids) {
    usage_check(enabled(pid), "step_block: process not enabled");
    const auto& ctl = ctls_[static_cast<std::size_t>(pid)].ctl;
    usage_check(ctl.pending.kind == OpKind::WriteSnap,
                "step_block: pending op is not an immediate snapshot");
    if (regset == nullptr) {
      regset = &ctl.pending.regs;
    } else {
      usage_check(ctl.pending.regs == *regset,
                  "step_block: mismatched snapshot register sets");
    }
  }
  // All writes first...
  for (Pid pid : pids) {
    auto& ctl = ctls_[static_cast<std::size_t>(pid)].ctl;
    do_write(pid, ctl.pending.reg, ctl.pending.value);
  }
  // ...then one common snapshot for everyone.
  const Value snap = do_snapshot(*regset);
  for (Pid pid : pids) {
    auto& ctl = ctls_[static_cast<std::size_t>(pid)].ctl;
    ctl.result = OpResult{snap, -1};
    if (opts_.record_trace) {
      trace_.push_back(TraceEvent{pid, ctl.pending, ctl.result});
    }
    ctl.steps += 1;
    total_steps_ += 1;
  }
  for (Pid pid : pids) resume(ctls_[static_cast<std::size_t>(pid)]);
}

void Sim::crash(Pid pid) {
  check_pid(pid);
  auto& ctl = ctls_[static_cast<std::size_t>(pid)].ctl;
  usage_check(!terminated(pid), "crash: process already terminated");
  if (checkpointing_ && !ctl.crashed) {
    undo_.push_back(UndoRecord{.kind = UndoRecord::Kind::Crash, .pid = pid});
    if (hashing_) hash_ ^= zobrist::crash_component(pid);
  }
  ctl.crashed = true;
}

void Sim::declare_edge(Pid from, Pid to) {
  check_pid(from);
  check_pid(to);
  usage_check(from != to, "declare_edge: no self-loops");
  usage_check(total_steps_ == 0,
              "declare_edge: topology must be declared before the first step");
  if (!edges_declared_) {
    // The builder's declarations replace whatever the SimOptions carried:
    // from here on only declared links exist.
    opts_.edges.assign(ctls_.size(), {});
    edges_declared_ = true;
  }
  auto& out = opts_.edges[static_cast<std::size_t>(from)];
  if (std::find(out.begin(), out.end(), to) == out.end()) out.push_back(to);
}

void Sim::set_max_rounds(long rounds) {
  usage_check(rounds >= 1, "set_max_rounds: need at least one round");
  usage_check(total_steps_ == 0,
              "set_max_rounds: must be declared before the first step");
  max_rounds_ = rounds;
}

void Sim::note_round(Pid pid, long idx) {
  check_pid(pid);
  if (rebuilding_ || max_rounds_ < 0) return;
  // Only step() resumes a body while checkpointing, after recording the
  // step and counting it in `steps`.
  ProcSlot& slot = ctls_[static_cast<std::size_t>(pid)];
  if (checkpointing_ && slot.ctl.steps > 0) {
    slot.history[static_cast<std::size_t>(slot.ctl.steps - 1)].reusable =
        false;
  }
  if (idx > max_rounds_) {
    violate(ModelEvent::Kind::Round, pid, -1,
            "process " + std::to_string(pid) + " entered round " +
                std::to_string(idx) + " beyond the declared max_rounds = " +
                std::to_string(max_rounds_));
  }
}

void Sim::set_state_hashing(bool on) {
  if (!on) {
    hashing_ = false;
    return;
  }
  usage_check(total_steps_ == 0,
              "set_state_hashing: must be enabled before the first step");
  usage_check(checkpointing_,
              "set_state_hashing: requires checkpointing (the step history "
              "is part of the hashed state)");
  hashing_ = true;
  hash_ = 0;
  // Fold in the initial configuration: register contents, plus any
  // processes the factory crash-stopped before stepping began. Channels,
  // histories, and violations are necessarily empty at step zero.
  for (int r = 0; r < num_registers(); ++r) {
    hash_ ^=
        zobrist::reg_component(r, regs_[static_cast<std::size_t>(r)].value);
  }
  for (Pid p = 0; p < n(); ++p) {
    if (ctls_[static_cast<std::size_t>(p)].ctl.crashed) {
      hash_ ^= zobrist::crash_component(p);
    }
  }
}

std::uint64_t Sim::state_hash() const {
  usage_check(hashing_, "state_hash: state hashing is not enabled");
  return hash_;
}

void Sim::set_checkpointing(bool on) {
  if (on == checkpointing_) return;
  if (on) {
    usage_check(total_steps_ == 0,
                "set_checkpointing: must be enabled before the first step "
                "(the undo log must cover the whole history)");
  } else {
    usage_check(!hashing_,
                "set_checkpointing: disable state hashing first (the hash "
                "depends on the step history)");
    for (Pid p = 0; p < n(); ++p) {
      ProcSlot& slot = ctls_[static_cast<std::size_t>(p)];
      if (ahead(slot)) rebuild_coroutine(p);
      slot.history.clear();
    }
    undo_.clear();
  }
  checkpointing_ = on;
}

void Sim::rewind(std::size_t k) {
  usage_check(checkpointing_, "rewind: checkpointing is not enabled");
  usage_check(k <= undo_.size(), "rewind: fewer recorded actions than k");
  for (; k > 0; --k, undo_.pop_back()) {
    const UndoRecord& u = undo_.back();
    ProcSlot& slot = ctls_[static_cast<std::size_t>(u.pid)];
    if (u.kind == UndoRecord::Kind::Crash) {
      if (hashing_) hash_ ^= zobrist::crash_component(u.pid);
      slot.ctl.crashed = false;
      continue;
    }
    // The frame stays where it is; only the logical position moves back,
    // over a record the history keeps for the step's re-execution.
    const long j = --slot.ctl.steps;
    total_steps_ -= 1;
    stats_.rewound += 1;
    const StepRecord& step = slot.history[static_cast<std::size_t>(j)];
    const OpRequest& req = step.request;
    if (hashing_) {
      hash_ ^= zobrist::hist_component(u.pid, j, step.result);
      for (std::size_t i = u.old_violations; i < violations_.size(); ++i) {
        hash_ ^= zobrist::viol_component(violations_[i]);
      }
    }
    switch (req.kind) {
      case OpKind::Start:
      case OpKind::Snapshot:
        break;
      case OpKind::Read:
        reg_at(req.reg).reads -= 1;
        break;
      case OpKind::Write:
      case OpKind::WriteSnap: {
        Register& r = reg_at(req.reg);
        if (hashing_) {
          hash_ ^= zobrist::reg_component(req.reg, r.value) ^
                   zobrist::reg_component(req.reg, u.old_value);
        }
        r.value = u.old_value;
        r.max_bits_written = u.old_max_bits;
        r.writes -= 1;
        break;
      }
      case OpKind::Send: {
        const std::size_t c = chan_at(u.pid, req.peer);
        auto& q = chan_[c];
        if (hashing_) {
          hash_ ^= zobrist::chan_component(
              u.pid, req.peer,
              chan_popped_[c] + static_cast<long>(q.size()) - 1, q.back());
        }
        q.pop_back();
        total_sends_ -= 1;
        break;
      }
      case OpKind::Recv: {
        // The delivered payload goes back to the head of the channel of
        // its actual sender (the request's `peer` is only a filter).
        const OpResult& got = step.result;
        const std::size_t c = chan_at(got.from, u.pid);
        chan_popped_[c] -= 1;
        if (hashing_) {
          hash_ ^= zobrist::chan_component(got.from, u.pid, chan_popped_[c],
                                           got.value);
        }
        chan_[c].push_front(got.value);
        break;
      }
    }
    if (req.kind == OpKind::Snapshot || req.kind == OpKind::WriteSnap) {
      for (int reg : req.regs) reg_at(reg).reads -= 1;
    }
    if (violations_.size() > u.old_violations) {
      violations_.resize(u.old_violations);
    }
    if (u.traced) trace_.pop_back();
  }
}

void Sim::rebuild_coroutine(Pid pid) {
  auto& slot = ctls_[static_cast<std::size_t>(pid)];
  ProcCtl& ctl = slot.ctl;
  const auto kept = static_cast<std::size_t>(ctl.steps);
  stats_.rebuilt += 1;
  stats_.replayed += ctl.steps;
  const bool was_crashed = ctl.crashed;
  ctl.terminated = false;
  ctl.crashed = false;
  ctl.decision = Value();
  ctl.exc = nullptr;
  slot.coro = slot.body(*slot.env);  // destroys the stale coroutine frame
  usage_check(slot.coro.valid(), "rewind: body did not return a coroutine");
  slot.coro.bind(&ctl);
  rebuilding_ = true;  // silence note_round: its checks already ran live
  for (std::size_t j = 0; j < kept; ++j) {
    ctl.result = slot.history[j].result;  // copy: the coroutine moves it out
    ctl.resume_point.resume();
    if (ctl.exc != nullptr) rebuilding_ = false;
    usage_check(ctl.exc == nullptr,
                "rewind: protocol threw during fast-forward "
                "(process bodies must be deterministic)");
  }
  rebuilding_ = false;
  ctl.crashed = was_crashed;
}

bool Sim::terminated(Pid pid) const {
  check_pid(pid);
  const auto& s = ctls_[static_cast<std::size_t>(pid)];
  return s.ctl.terminated && !ahead(s);
}

bool Sim::crashed(Pid pid) const {
  check_pid(pid);
  return ctls_[static_cast<std::size_t>(pid)].ctl.crashed;
}

const Value& Sim::decision(Pid pid) const {
  usage_check(terminated(pid), "decision: process has not terminated");
  return ctls_[static_cast<std::size_t>(pid)].ctl.decision;
}

long Sim::steps(Pid pid) const {
  check_pid(pid);
  return ctls_[static_cast<std::size_t>(pid)].ctl.steps;
}

const Value& Sim::peek(int reg) const { return reg_at(reg).value; }

const Register& Sim::register_info(int reg) const { return reg_at(reg); }

std::string Sim::register_word(const std::vector<int>& regs) const {
  std::ostringstream os;
  for (int r : regs) os << reg_at(r).value << '|';
  return os.str();
}

int Sim::max_bounded_bits_used() const {
  int w = 0;
  for (const Register& r : regs_) {
    if (r.width_bits != kUnbounded) w = std::max(w, r.max_bits_written);
  }
  return w;
}

std::size_t Sim::channel_size(Pid from, Pid to) const {
  return channel(from, to).size();
}

const std::deque<Value>& Sim::channel(Pid from, Pid to) const {
  check_pid(from);
  check_pid(to);
  return chan_[chan_at(from, to)];
}

long Sim::channel_delivered(Pid from, Pid to) const {
  check_pid(from);
  check_pid(to);
  return chan_popped_[chan_at(from, to)];
}

const OpResult& Sim::step_result(Pid pid, long j) const {
  usage_check(checkpointing_, "step_result: checkpointing is not enabled");
  usage_check(j >= 0 && j < steps(pid), "step_result: no such step");
  return ctls_[static_cast<std::size_t>(pid)]
      .history[static_cast<std::size_t>(j)]
      .result;
}

bool Sim::may_send(Pid from, Pid to) const {
  if (opts_.edges.empty()) return from != to;
  const auto& out = opts_.edges[static_cast<std::size_t>(from)];
  return std::find(out.begin(), out.end(), to) != out.end();
}

void Sim::violate(ModelEvent::Kind kind, Pid pid, int reg, std::string msg) {
  if (!collect_violations_) bsr::detail::throw_model(msg);
  violations_.push_back(ModelEvent{kind, pid, reg, total_steps_,
                                   std::move(msg)});
  // The violation log is part of the hashed state: schedules can converge
  // on one world state while blaming different processes for a violation
  // (e.g. opposite orders of two identical writes to a write-once
  // register), and pruning must not merge those findings.
  if (hashing_) hash_ ^= zobrist::viol_component(violations_.back());
}

bool Sim::write_breaks_rules(Pid pid, int reg, const Value& v) const {
  if (reg < 0 || reg >= num_registers()) return true;
  bool broken = false;
  check_write(regs_[static_cast<std::size_t>(reg)], pid, v,
              [&broken](ModelEvent::Kind, const auto&) { broken = true; });
  return broken;
}

void Sim::do_write(Pid pid, int reg, const Value& v) {
  Register& r = reg_at(reg);
  reg_ops_in_step_ += 1;
  check_write(r, pid, v, [&](ModelEvent::Kind kind, const auto& message) {
    violate(kind, pid, reg, message());
  });
  if (r.width_bits != kUnbounded && v.is_u64()) {
    r.max_bits_written = std::max(r.max_bits_written, v.bit_width());
  }
  if (hashing_) {
    hash_ ^= zobrist::reg_component(reg, r.value) ^
             zobrist::reg_component(reg, v);
  }
  r.value = v;
  r.writes += 1;
}

Value Sim::do_snapshot(const std::vector<int>& regs) {
  reg_ops_in_step_ += 1;
  std::vector<Value> out;
  out.reserve(regs.size());
  for (int idx : regs) {
    Register& r = reg_at(idx);
    r.reads += 1;
    out.push_back(r.value);
  }
  return Value(std::move(out));
}

void Sim::execute(ProcCtl& ctl, const OpRequest& req, Pid recv_from) {
  switch (req.kind) {
    case OpKind::Start:
      ctl.result = OpResult{};
      break;
    case OpKind::Read: {
      Register& r = reg_at(req.reg);
      reg_ops_in_step_ += 1;
      r.reads += 1;
      ctl.result = OpResult{r.value, -1};
      break;
    }
    case OpKind::Write:
      do_write(ctl.pid, req.reg, req.value);
      ctl.result = OpResult{};
      break;
    case OpKind::Snapshot:
      ctl.result = OpResult{do_snapshot(req.regs), -1};
      break;
    case OpKind::WriteSnap:
      do_write(ctl.pid, req.reg, req.value);
      ctl.result = OpResult{do_snapshot(req.regs), -1};
      break;
    case OpKind::Send: {
      usage_check(req.peer >= 0 && req.peer < n(), "send: bad destination");
      if (!may_send(ctl.pid, req.peer)) {
        violate(ModelEvent::Kind::Topology, ctl.pid, -1,
                "process " + std::to_string(ctl.pid) +
                    " sent on a non-existent link to " +
                    std::to_string(req.peer));
      }
      const std::size_t c = chan_at(ctl.pid, req.peer);
      if (hashing_) {
        hash_ ^= zobrist::chan_component(
            ctl.pid, req.peer,
            chan_popped_[c] + static_cast<long>(chan_[c].size()), req.value);
      }
      chan_[c].push_back(req.value);
      total_sends_ += 1;
      ctl.result = OpResult{};
      break;
    }
    case OpKind::Recv: {
      Pid from = 0;  // the lowest-pid sender, unless `recv_from` names one
      while (from < n() && !recv_ready(ctl.pid, from)) ++from;
      usage_check(from < n(), "recv stepped with no queued message");
      if (recv_from != -1) {
        usage_check(recv_ready(ctl.pid, recv_from),
                    "recv: chosen sender has no queued message");
        from = recv_from;
      }
      const std::size_t c = chan_at(from, ctl.pid);
      auto& q = chan_[c];
      if (hashing_) {
        hash_ ^= zobrist::chan_component(from, ctl.pid, chan_popped_[c],
                                         q.front());
      }
      ctl.result = OpResult{std::move(q.front()), from};
      q.pop_front();
      chan_popped_[c] += 1;
      break;
    }
  }
}

void Sim::resume(ProcSlot& slot) {
  ProcCtl& ctl = slot.ctl;
  usage_check(static_cast<bool>(ctl.resume_point), "resume: no resume point");
  ctl.resume_point.resume();
  // A frame that returned or threw awaits no new op, so the step it just
  // took stays pending; `step` moved that request into the history.
  if (checkpointing_ && (ctl.terminated || ctl.exc)) {
    ctl.pending = slot.history.back().request;
  }
  if (ctl.exc) {
    auto exc = ctl.exc;
    ctl.exc = nullptr;
    ctl.crashed = true;  // a throwing process takes no further steps
    std::rethrow_exception(exc);
  }
}

}  // namespace bsr::sim
