#include "proto/builder.h"

#include "util/errors.h"

namespace bsr::proto {

namespace {

/// Pushes a nested instruction sink for a combinator body and pops it on
/// scope exit (exception-safe: a throwing body leaves the stack balanced).
class SinkGuard {
 public:
  SinkGuard(ReflectCtx* ctx, std::vector<ir::Instr>* sink) : ctx_(ctx) {
    ctx_->sinks.push_back(sink);
  }
  SinkGuard(const SinkGuard&) = delete;
  SinkGuard& operator=(const SinkGuard&) = delete;
  ~SinkGuard() { ctx_->sinks.pop_back(); }

 private:
  ReflectCtx* ctx_;
};

thread_local int g_read_perturbation = 0;

/// The perturbation applied to reflected read results under
/// ScopedReadPerturbation: flip the low bit of integer payloads (and of
/// every integer inside a composite), so any native branch or trip count
/// computed from a read takes a different path on the second reflection.
/// ⊥ and non-integer payloads pass through unchanged.
Value perturb(const Value& v) {
  if (v.is_u64()) return Value(v.as_u64() ^ 1);
  if (v.is_vec()) {
    std::vector<Value> out;
    out.reserve(v.as_vec().size());
    for (const Value& e : v.as_vec()) out.push_back(perturb(e));
    return Value(std::move(out));
  }
  return v;
}

Value tracked(const ReflectCtx& ctx, int reg) {
  const Value& v = ctx.store.at(static_cast<std::size_t>(reg));
  return read_perturbation_active() ? perturb(v) : v;
}

}  // namespace

ScopedReadPerturbation::ScopedReadPerturbation() noexcept {
  g_read_perturbation += 1;
}
ScopedReadPerturbation::~ScopedReadPerturbation() { g_read_perturbation -= 1; }

bool read_perturbation_active() noexcept { return g_read_perturbation > 0; }

// --- P: atomic ops ----------------------------------------------------------

OpStep P::read(int reg) const {
  if (!reflecting()) return OpStep(env_->read(reg));
  rctx_->emit(ir::read(reg));
  sim::OpResult r;
  r.value = tracked(*rctx_, reg);
  return OpStep(std::move(r));
}

OpStep P::write(int reg, Value v, ir::ValueExpr vals) const {
  if (!reflecting()) return OpStep(env_->write(reg, std::move(v)));
  rctx_->emit(ir::write(reg, std::move(vals)));
  rctx_->store.at(static_cast<std::size_t>(reg)) = std::move(v);
  return OpStep(sim::OpResult{});
}

OpStep P::snapshot(std::vector<int> regs) const {
  if (!reflecting()) return OpStep(env_->snapshot(std::move(regs)));
  std::vector<Value> contents;
  contents.reserve(regs.size());
  for (const int reg : regs) contents.push_back(tracked(*rctx_, reg));
  rctx_->emit(ir::snapshot(std::move(regs)));
  sim::OpResult r;
  r.value = Value(std::move(contents));
  return OpStep(std::move(r));
}

OpStep P::write_snapshot(int own, Value v, std::vector<int> regs,
                         ir::ValueExpr vals) const {
  if (!reflecting()) {
    return OpStep(env_->write_snapshot(own, std::move(v), std::move(regs)));
  }
  rctx_->store.at(static_cast<std::size_t>(own)) = std::move(v);
  std::vector<Value> contents;
  contents.reserve(regs.size());
  for (const int reg : regs) contents.push_back(tracked(*rctx_, reg));
  rctx_->emit(ir::write_snapshot(own, std::move(vals), std::move(regs)));
  sim::OpResult r;
  r.value = Value(std::move(contents));
  return OpStep(std::move(r));
}

OpStep P::send(sim::Pid to, Value v, ir::ValueExpr payload) const {
  if (!reflecting()) return OpStep(env_->send(to, std::move(v)));
  rctx_->emit(ir::send(to, std::move(payload)));
  return OpStep(sim::OpResult{});
}

OpStep P::recv(sim::Pid from) const {
  if (!reflecting()) return OpStep(env_->recv(from));
  rctx_->emit(ir::recv(from));
  return OpStep(sim::OpResult{});  // ⊥ payload, from = -1
}

// --- P: combinators ---------------------------------------------------------

sim::Task<void> P::loop_until(
    ir::Count iters, std::function<sim::Task<LoopCtl>()> body) const {
  if (reflecting()) {
    std::vector<ir::Instr> nested;
    {
      const SinkGuard guard(rctx_, &nested);
      co_await body();
    }
    rctx_->emit(ir::loop(iters, std::move(nested)));
    co_return;
  }
  while (co_await body() == LoopCtl::Continue) {
  }
}

sim::Task<void> P::repeat(long count,
                          std::function<sim::Task<void>()> body) const {
  if (reflecting()) {
    std::vector<ir::Instr> nested;
    {
      const SinkGuard guard(rctx_, &nested);
      co_await body();
    }
    rctx_->emit(ir::loop(ir::Count::exactly(count), std::move(nested)));
    co_return;
  }
  for (long i = 0; i < count; ++i) co_await body();
}

sim::Task<void> detail::reflect_maybe(ReflectCtx* ctx, sim::Task<void> body) {
  std::vector<ir::Instr> nested;
  {
    const SinkGuard guard(ctx, &nested);
    co_await body;
  }
  ctx->emit(ir::maybe(std::move(nested)));
}

sim::Task<void> P::serve(std::function<sim::Task<void>()> body) const {
  if (reflecting()) {
    std::vector<ir::Instr> nested;
    {
      const SinkGuard guard(rctx_, &nested);
      co_await body();
    }
    rctx_->emit(ir::serve_loop(std::move(nested)));
    co_return;
  }
  for (;;) co_await body();
}

sim::Task<void> P::round(std::function<sim::Task<void>()> body) const {
  if (reflecting()) {
    std::vector<ir::Instr> nested;
    {
      const SinkGuard guard(rctx_, &nested);
      co_await body();
    }
    rctx_->emit(ir::round(std::move(nested)));
    co_return;
  }
  rounds_entered_ += 1;
  env_->note_round(rounds_entered_);
  co_await body();
}

sim::Task<void> P::flush(std::deque<std::pair<sim::Pid, Value>>& outbox,
                         std::vector<sim::Pid> dsts,
                         ir::ValueExpr payload) const {
  if (reflecting()) {
    for (const sim::Pid dst : dsts) {
      rctx_->emit(ir::maybe({ir::send(dst, payload)}));
    }
    co_return;
  }
  while (!outbox.empty()) {
    auto [to, v] = std::move(outbox.front());
    outbox.pop_front();
    co_await env_->send(to, std::move(v));
  }
}

sim::Task<void> P::recv_then(std::function<void(const sim::OpResult&)> handler,
                             sim::Pid from) const {
  if (reflecting()) {
    rctx_->emit(ir::recv(from));
    co_return;
  }
  const sim::OpResult m = co_await env_->recv(from);
  handler(m);
}

// --- Proto ------------------------------------------------------------------

Proto::Proto(ReflectOptions opts) : rctx_(std::make_unique<ReflectCtx>()) {
  rctx_->n = opts.n;
  rctx_->ir.params = opts.params;
}

int Proto::n() const { return reflecting() ? rctx_->n : sim_->n(); }

int Proto::add_register(std::string name, sim::Pid writer, int width_bits,
                        Value init) {
  if (!reflecting()) {
    return sim_->add_register(std::move(name), writer, width_bits,
                              std::move(init));
  }
  rctx_->ir.registers.push_back(ir::RegisterDecl{
      std::move(name), writer, width_bits, /*write_once=*/false,
      /*allows_bottom=*/false});
  rctx_->store.push_back(std::move(init));
  return static_cast<int>(rctx_->ir.registers.size()) - 1;
}

int Proto::add_input_register(std::string name, sim::Pid writer) {
  if (!reflecting()) return sim_->add_input_register(std::move(name), writer);
  rctx_->ir.registers.push_back(ir::RegisterDecl{
      std::move(name), writer, ir::kUnboundedWidth, /*write_once=*/true,
      /*allows_bottom=*/false});
  rctx_->store.push_back(Value());
  return static_cast<int>(rctx_->ir.registers.size()) - 1;
}

int Proto::add_bottom_register(std::string name, sim::Pid writer,
                               int width_bits, bool write_once) {
  if (!reflecting()) {
    return sim_->add_bottom_register(std::move(name), writer, width_bits,
                                     write_once);
  }
  rctx_->ir.registers.push_back(ir::RegisterDecl{
      std::move(name), writer, width_bits, write_once,
      /*allows_bottom=*/true});
  rctx_->store.push_back(Value());
  return static_cast<int>(rctx_->ir.registers.size()) - 1;
}

void Proto::channel(int src, int dst, int width_bits) {
  if (!reflecting()) {
    // The first declaration supersedes any SimOptions::edges preset, making
    // the builder the single topology source; the per-link width budget is
    // a static-tier concept with no dynamic enforcement, so only the edge
    // itself routes through.
    sim_->declare_edge(src, dst);
    return;
  }
  rctx_->ir.channels.push_back(ir::ChannelDecl{src, dst, width_bits});
}

void Proto::max_rounds(long rounds) {
  if (!reflecting()) {
    sim_->set_max_rounds(rounds);
    return;
  }
  rctx_->ir.max_rounds = rounds;
}

void Proto::spawn(sim::Pid pid, std::function<sim::Proc(P)> body) {
  if (!reflecting()) {
    sim_->spawn(pid, [body = std::move(body)](sim::Env& env) {
      return body(P::exec(env));
    });
    return;
  }
  ir::ProcessIR proc;
  proc.pid = pid;
  rctx_->sinks.clear();
  rctx_->sinks.push_back(&proc.body);
  // Each process reflects solo, against the initial register contents —
  // restore the tracked store afterwards so sibling reflections do not see
  // this process's writes.
  const std::vector<Value> saved = rctx_->store;
  P p;
  p.rctx_ = rctx_.get();
  p.pid_ = pid;
  sim::Proc coro = body(p);
  sim::ProcCtl ctl;
  ctl.pid = pid;
  coro.bind(&ctl);
  ctl.resume_point.resume();
  rctx_->store = saved;
  if (ctl.exc) std::rethrow_exception(ctl.exc);
  usage_check(ctl.terminated,
              "Proto::spawn (reflect): body suspended on a non-builder "
              "awaitable; reflection requires every await to be a builder "
              "op or combinator");
  rctx_->ir.processes.push_back(std::move(proc));
}

ir::ProtocolIR Proto::take_ir() && {
  usage_check(reflecting(), "Proto::take_ir: not in reflect mode");
  return std::move(rctx_->ir);
}

}  // namespace bsr::proto
