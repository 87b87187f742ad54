#include "analysis/claims.h"

#include <array>
#include <memory>
#include <utility>

#include "core/alg1.h"
#include "core/alg2.h"
#include "core/alg6.h"
#include "core/baseline.h"
#include "core/lemma82.h"
#include "core/packed.h"
#include "core/sec4.h"
#include "core/sec6.h"
#include "core/sec7.h"
#include "proto/builder.h"
#include "sim/sched.h"
#include "tasks/approx.h"
#include "tasks/explicit_task.h"
#include "topo/bmz.h"

namespace bsr::analysis {

int WidthClaim::effective_bits(const ir::ParamEnv& params) const {
  if (!symbolic_bits.defined()) return max_register_bits;
  const long v = symbolic_bits.eval(params);
  if (v < 0) return 0;
  if (v > 63) return 63;
  return static_cast<int>(v);
}

namespace {

using sim::Sim;

/// Shared sample runner for the §6 stacks: processes serve forever, so
/// random runs stop once every non-crashed process has decided.
std::function<void(Sim&, std::uint64_t)> stack_sample_runner() {
  return [](Sim& sim, std::uint64_t seed) {
    auto* result = sim.user_data<core::Sec6Result>();
    sim::RandomRunOptions opts;
    opts.seed = seed;
    opts.max_steps = 40'000'000;
    opts.done = [result](const Sim& s) { return result->all_decided(s); };
    run_random(sim, opts);
  };
}

/// A concrete per-process step budget: the bound every schedule of the
/// spec's instantiation must respect, stated as a constant because the
/// registry pins each protocol at fixed parameters. The checker proves the
/// IR-derived symbolic bound ≤ this budget for all parameter values.
StepClaim const_steps(long steps, std::string source) {
  return {ir::WidthExpr::constant(steps), std::move(source)};
}

/// ApproxAgreement(2, m) materialized for the BMZ machinery (Algorithm 2's
/// precomputation input).
tasks::ExplicitTask approx_task(std::uint64_t m) {
  const tasks::ApproxAgreement aa(2, m);
  std::vector<Value> domain;
  for (std::uint64_t v = 0; v <= m; ++v) domain.emplace_back(v);
  return tasks::materialize(aa, domain);
}

ProtocolSpec alg1_spec() {
  ProtocolSpec s;
  s.name = "alg1";
  s.description = "Algorithm 1: 2-process eps-agreement, 1-bit registers";
  s.claim = {/*max_register_bits=*/2, /*per_process_bits=*/3,
             "Theorem 1.2 / §5.1 (1-bit R_i, 2-bit ⊥/0/1 I_i; 3 bits per "
             "process, §5.2.3)"};
  s.step_claim = const_steps(
      7, "Theorem 1.2 / §5.1 (wait-free: at most 7 atomic steps at k = 2)");
  s.factory = [] {
    auto sim = std::make_unique<Sim>(2);
    core::install_alg1(*sim, /*k=*/2, {0, 1});
    return sim;
  };
  s.describe = [] { return core::describe_alg1(/*k=*/2); };
  s.explore.max_crashes = 1;
  s.explore.max_steps = 200;
  return s;
}

ProtocolSpec packed_alg1_spec() {
  ProtocolSpec s;
  s.name = "alg1-packed";
  s.description =
      "Algorithm 1 over one packed 3-bit register per process";
  s.claim = {/*max_register_bits=*/3, /*per_process_bits=*/3,
             "§5.2.3 (b1+b2-bit register emulates b1- and b2-bit registers)"};
  s.step_claim = const_steps(
      6, "§5.2.3 (packing saves one write: at most 6 steps at k = 2)");
  s.factory = [] {
    auto sim = std::make_unique<Sim>(2);
    core::install_packed_alg1(*sim, /*k=*/2, {0, 1});
    return sim;
  };
  s.describe = [] { return core::describe_packed_alg1(/*k=*/2); };
  s.explore.max_crashes = 1;
  s.explore.max_steps = 200;
  return s;
}

ProtocolSpec alg2_spec() {
  ProtocolSpec s;
  s.name = "alg2";
  s.description =
      "Algorithm 2: universal 2-process construction, 3-bit coordination";
  s.claim = {/*max_register_bits=*/2, /*per_process_bits=*/3,
             "Theorem 1.2 / §5.2.3 (3 coordination bits per process; task "
             "inputs through write-once input registers)"};
  s.step_claim = const_steps(
      8, "Theorem 1.2 / §5.2 (universal construction: at most 8 steps)");
  const auto task = std::make_shared<tasks::ExplicitTask>(approx_task(2));
  const auto bmz = std::make_shared<topo::Bmz2>(*task);
  const auto plan = std::make_shared<topo::Bmz2Plan>(bmz->plan());
  s.factory = [plan] {
    auto sim = std::make_unique<Sim>(2);
    core::install_alg2(*sim, *plan, {Value(0), Value(1)});
    return sim;
  };
  s.describe = [plan] {
    return core::describe_alg2(*plan, {Value(0), Value(1)});
  };
  s.explore.max_steps = 500;
  return s;
}

ProtocolSpec lemma82_spec() {
  ProtocolSpec s;
  s.name = "lemma82";
  s.description =
      "Lemma 8.2: IIS eps-agreement from the 1-bit labelling protocol";
  s.claim = {/*max_register_bits=*/2, /*per_process_bits=*/std::nullopt,
             "Lemma 8.2 / §8.1 (1 data bit + ⊥ per iterated register)"};
  s.step_claim = const_steps(
      4, "Lemma 8.2 / §8.1 (2 steps per IIS iteration, 2 iterations)");
  s.factory = [] {
    auto sim = std::make_unique<Sim>(2);
    core::install_labelling_agreement(*sim, /*rounds=*/2, {0, 1});
    return sim;
  };
  s.describe = [] { return core::describe_labelling_agreement(/*rounds=*/2); };
  s.explore.max_crashes = 1;
  s.explore.max_steps = 200;
  return s;
}

ProtocolSpec alg6_spec() {
  ProtocolSpec s;
  const core::Alg6Options opts{/*rounds=*/2, /*delta=*/2};
  s.name = "alg6-labelling";
  s.description =
      "Algorithm 6: IS-labelling simulation on two constant-size registers";
  s.claim = {/*max_register_bits=*/core::alg6_register_bits(opts.delta),
             /*per_process_bits=*/core::alg6_register_bits(opts.delta),
             "Theorem 8.1 / §8.2 (⌈log₂(2Δ+1)⌉ + Δ+1 = 6 bits at Δ = 2)"};
  s.step_claim = const_steps(
      4, "Theorem 8.1 / §8.2 (2 steps per simulated round, 2 rounds)");
  s.factory = [opts] {
    auto sim = std::make_unique<Sim>(2);
    core::install_alg6_labelling(*sim, opts);
    return sim;
  };
  s.describe = [opts] { return core::describe_alg6_labelling(opts); };
  s.explore.max_steps = 400;
  return s;
}

ProtocolSpec fast_agreement_spec() {
  ProtocolSpec s;
  const core::Alg6Options opts{/*rounds=*/2, /*delta=*/2};
  s.name = "fast-agreement";
  s.description =
      "Theorem 8.1: fast eps-agreement (Algorithm 6 + value assignment)";
  s.claim = {/*max_register_bits=*/core::alg6_register_bits(opts.delta),
             /*per_process_bits=*/core::alg6_register_bits(opts.delta),
             "Theorem 8.1 (6-bit registers, O(log 1/ε) steps)"};
  s.step_claim = const_steps(
      6, "Theorem 8.1 (O(log 1/ε) steps: 6 at the 2-round instantiation)");
  const auto plan = std::make_shared<core::FastAgreementPlan>(opts);
  s.factory = [plan] {
    auto sim = std::make_unique<Sim>(2);
    core::install_fast_agreement(*sim, *plan, {0, 1});
    return sim;
  };
  s.describe = [plan] { return core::describe_fast_agreement(*plan); };
  s.explore.max_steps = 400;
  return s;
}

ProtocolSpec alg4_spec() {
  ProtocolSpec s;
  s.name = "alg4-agreement";
  s.description =
      "Algorithm 4: IIS universality with 1-bit registers (eps-agreement)";
  s.claim = {/*max_register_bits=*/1, /*per_process_bits=*/std::nullopt,
             "Theorem 1.4 / §7 (every iterated register is 1 bit)"};
  s.step_claim = const_steps(
      6, "Theorem 1.4 / §7 (3 bit-register writes/reads per IIS round)");
  const auto plan = std::make_shared<core::Alg4AgreementPlan>(/*k=*/1);
  s.factory = [plan] {
    auto sim = std::make_unique<Sim>(2);
    core::install_alg4_agreement(*sim, *plan, {0, 1});
    return sim;
  };
  s.describe = [plan] { return core::describe_alg4_agreement(*plan); };
  s.explore.max_steps = 500;
  return s;
}

ProtocolSpec baseline_spec() {
  ProtocolSpec s;
  s.name = "baseline-unbounded";
  s.description =
      "Lemma 2.2 baseline: eps-agreement with unbounded registers";
  s.claim = {/*max_register_bits=*/0, /*per_process_bits=*/std::nullopt,
             "Lemma 2.2 (unbounded model: no bounded register may appear)"};
  s.step_claim = const_steps(
      2, "Lemma 2.2 (one write and one read per round, 2 rounds collapsed)");
  s.factory = [] {
    auto sim = std::make_unique<Sim>(2);
    core::install_unbounded_agreement(*sim, /*rounds=*/2, {0, 1});
    return sim;
  };
  s.describe = [] {
    return core::describe_unbounded_agreement(/*n=*/2, /*rounds=*/2);
  };
  s.explore.max_steps = 200;
  return s;
}

ProtocolSpec sec6_spec() {
  ProtocolSpec s;
  const int n = 3;
  const int t = 1;
  s.name = "sec6-stack";
  s.description =
      "Theorem 1.3 register stack: ABD + ring router + ABP links";
  s.claim = {/*max_register_bits=*/core::sec6_register_bits(t),
             /*per_process_bits=*/core::sec6_register_bits(t),
             "Theorem 1.3 / §6 (one register of 3(t+1) bits per process)"};
  s.step_claim.source =
      "§6 (serve-forever stack: no finite per-execution step bound)";
  s.factory = [n, t] {
    auto sim = std::make_unique<Sim>(n);
    auto result = std::make_shared<core::Sec6Result>(n);
    core::install_register_stack(*sim, core::Sec6Options{t, /*rounds=*/1},
                                 {0, 1, 1}, result);
    sim->set_user_data(result);
    return sim;
  };
  // Stack processes serve forever (a decided process keeps answering quorum
  // requests), so exhaustive exploration never reaches a complete state:
  // audit seeded random runs instead, stopping once every process decided.
  s.sample_runner = stack_sample_runner();
  s.describe = [n, t] {
    return core::describe_register_stack(n, core::Sec6Options{t, /*rounds=*/1});
  };
  s.sample_seeds = 3;
  s.params.n = n;
  s.params.t = t;
  return s;
}

ProtocolSpec packed_alg2_spec() {
  ProtocolSpec s;
  s.name = "packed-alg2";
  s.description =
      "Algorithm 2 over one packed 3-bit register per process";
  s.claim = {/*max_register_bits=*/3, /*per_process_bits=*/3,
             "Theorem 1.2 / §5.2.3 (packed universal construction: all "
             "coordination in one 3-bit register per process)"};
  s.step_claim = const_steps(
      7, "Theorem 1.2 / §5.2.3 (packed construction: at most 7 steps)");
  const auto task = std::make_shared<tasks::ExplicitTask>(approx_task(2));
  const auto bmz = std::make_shared<topo::Bmz2>(*task);
  const auto plan = std::make_shared<topo::Bmz2Plan>(bmz->plan());
  s.factory = [plan] {
    auto sim = std::make_unique<Sim>(2);
    core::install_packed_alg2(*sim, *plan, {Value(0), Value(1)});
    return sim;
  };
  s.describe = [plan] {
    return core::describe_packed_alg2(*plan, {Value(0), Value(1)});
  };
  s.explore.max_steps = 500;
  return s;
}

ProtocolSpec alg3_spec() {
  ProtocolSpec s;
  s.name = "alg3-full-info";
  s.description =
      "Algorithm 3: k-round full-information IC protocol (unbounded views)";
  s.claim = {/*max_register_bits=*/0, /*per_process_bits=*/std::nullopt,
             "§7 Algorithm 3 (full-information views: no bounded registers)"};
  s.step_claim = const_steps(
      6, "§7 Algorithm 3 (one write-snapshot + 2 reads per round, k = 2)");
  s.factory = [] {
    auto sim = std::make_unique<Sim>(2);
    core::install_full_info_ic(*sim, /*k=*/2, {Value(0), Value(1)});
    return sim;
  };
  s.describe = [] { return core::describe_full_info_ic(/*n=*/2, /*k=*/2); };
  s.explore.max_crashes = 1;
  s.explore.max_steps = 200;
  s.params.n = 2;
  s.params.k = 2;
  return s;
}

ProtocolSpec alg5_spec() {
  ProtocolSpec s;
  s.name = "alg5-snapshot";
  s.description =
      "Algorithm 5: one-shot immediate snapshot from n IC iterations";
  s.claim = {/*max_register_bits=*/0, /*per_process_bits=*/std::nullopt,
             "§7 Algorithm 5 / Proposition 7.2 (unbounded IC registers)"};
  s.step_claim = const_steps(
      6, "§7 Algorithm 5 (n IC iterations of 3 steps each at n = 2)");
  s.factory = [] {
    auto sim = std::make_unique<Sim>(2);
    core::install_alg5(*sim, {Value(0), Value(1)});
    return sim;
  };
  s.describe = [] { return core::describe_alg5(/*n=*/2); };
  // alg5_body model-checks that a snapshot is obtained within n iterations,
  // which relies on every process completing: keep crashes off.
  s.explore.max_steps = 200;
  s.params.n = 2;
  return s;
}

ProtocolSpec abd_stack_spec() {
  ProtocolSpec s;
  const int n = 3;
  const int t = 1;
  s.name = "abd-stack";
  s.description =
      "§6 phase 1: ABD atomic registers over native complete-graph channels";
  s.claim = {/*max_register_bits=*/0, /*per_process_bits=*/std::nullopt,
             "§6 / ABD (message passing only: no shared registers)"};
  s.step_claim.source =
      "§6 / ABD (serve-forever quorum servers: no finite step bound)";
  s.factory = [n, t] {
    auto sim = std::make_unique<Sim>(n);
    auto result = std::make_shared<core::Sec6Result>(n);
    core::install_abd_stack(*sim, core::Sec6Options{t, /*rounds=*/1},
                            {0, 1, 1}, result);
    sim->set_user_data(result);
    return sim;
  };
  s.sample_runner = stack_sample_runner();
  s.describe = [n, t] {
    return core::describe_abd_stack(n, core::Sec6Options{t, /*rounds=*/1});
  };
  s.sample_seeds = 3;
  s.params.n = n;
  s.params.t = t;
  return s;
}

ProtocolSpec ring_stack_spec() {
  ProtocolSpec s;
  const int n = 4;
  const int t = 1;
  s.name = "ring-stack";
  s.description =
      "§6 phases 1-2: ABD + flooding router over native ring channels";
  s.claim = {/*max_register_bits=*/0, /*per_process_bits=*/std::nullopt,
             "§6 / t-augmented ring (messages only; kernel enforces the ring "
             "topology)"};
  s.step_claim.source =
      "§6 / ring router (serve-forever flooding: no finite step bound)";
  s.factory = [n, t] {
    auto sim = std::make_unique<Sim>(core::ring_sim_options(n, t));
    auto result = std::make_shared<core::Sec6Result>(n);
    core::install_ring_stack(*sim, core::Sec6Options{t, /*rounds=*/1},
                             {0, 1, 1, 0}, result);
    sim->set_user_data(result);
    return sim;
  };
  s.sample_runner = stack_sample_runner();
  s.describe = [n, t] {
    return core::describe_ring_stack(n, core::Sec6Options{t, /*rounds=*/1});
  };
  s.sample_seeds = 3;
  s.params.n = n;
  s.params.t = t;
  return s;
}

ProtocolSpec sec4_quantized_spec() {
  ProtocolSpec s;
  const int s_bits = 2;
  const int rounds = 1;
  s.name = "sec4-quantized";
  s.description =
      "§4 quantized early group: s-bit grid estimates (symbolic width "
      "ceil_log2(k))";
  s.claim = {/*max_register_bits=*/s_bits, /*per_process_bits=*/s_bits,
             "§4 / Theorem 1.1 (s-bit footprint registers, s = ⌈log₂ k⌉ for "
             "the k-point grid)"};
  s.claim.symbolic_bits =
      ir::WidthExpr::ceil_log2(ir::WidthExpr::param(ir::Param::K));
  s.step_claim = const_steps(
      2, "§4 / Theorem 1.1 (one estimate write + one read per round)");
  s.factory = [s_bits, rounds] {
    auto setup = core::make_quantized_early_group(s_bits, rounds);
    return std::move(setup.sim);
  };
  s.describe = [s_bits, rounds] {
    return core::describe_quantized_early_group(s_bits, rounds);
  };
  s.explore.max_steps = 50;
  s.params.n = 2;
  s.params.k = 1 << s_bits;  // grid size: 2^s points
  return s;
}

/// The linter's canary, written once against the builder — the violations
/// live in the executable body and reflection carries them into the IR
/// faithfully, so the static tier must flag the protocol through the same
/// facts the dynamic tier observes (and `--mode both` sees no disagreement).
void build_misdeclared(proto::Proto& pr) {
  const int wide = pr.add_register("demo.wide", 0, 8, Value(0));
  const int once =
      pr.add_bottom_register("demo.once", 0, 2, /*write_once=*/true);
  const int peer = pr.add_register("demo.peer", 1, 2, Value(0));
  const int bot = pr.add_bottom_register("demo.bottom", 1, 2);
  const int dead = pr.add_register("demo.dead", 1, 1, Value(0));
  pr.spawn(0, [=](proto::P p) -> sim::Proc {
    // 5 bits: breaks the 2-bit claim.
    co_await p.write(wide, Value(21), ir::ValueExpr::constant(21));
    co_await p.write(once, Value(1), ir::ValueExpr::constant(1));
    // Write-once violation.
    co_await p.write(once, Value(2), ir::ValueExpr::constant(2));
    // SWMR violation: peer is owned by process 1.
    co_await p.write(peer, Value(1), ir::ValueExpr::constant(1));
    co_return Value(0);
  });
  pr.spawn(1, [=](proto::P p) -> sim::Proc {
    (void)co_await p.read(wide);
    // ⊥ code point of a 2-bit bottom register.
    co_await p.write(bot, Value(3), ir::ValueExpr::constant(3));
    // 3 bits into a 1-bit register.
    co_await p.write(dead, Value(5), ir::ValueExpr::constant(5));
    (void)co_await p.read(once);
    (void)co_await p.read(bot);
    co_return Value(1);
  });
}

/// A protocol whose declarations and behavior violate every rule the
/// analyzer knows — claims 2-bit registers but declares an 8-bit one, writes
/// a 5-bit value, writes a write-once register twice, writes the other
/// process's register, escapes into a ⊥ code point, and declares a register
/// nobody ever reads.
ProtocolSpec misdeclared_demo_spec() {
  ProtocolSpec s;
  s.name = "demo-misdeclared";
  s.description =
      "intentionally misdeclared protocol (linter self-test; always fails)";
  s.claim = {/*max_register_bits=*/2, /*per_process_bits=*/3,
             "none — a deliberately false claim the linter must refute"};
  s.step_claim = const_steps(5, "none — 5 straight-line ops per process");
  s.demo = true;
  s.factory = [] {
    auto sim = std::make_unique<Sim>(2);
    proto::Proto pr(*sim);
    build_misdeclared(pr);
    return sim;
  };
  s.describe = [] {
    proto::Proto pr(proto::Proto::ReflectOptions{.n = 2, .params = {}});
    build_misdeclared(pr);
    return std::move(pr).take_ir();
  };
  s.explore.max_steps = 50;
  return s;
}

/// The symbolic canary's single-source body. The write is annotated
/// *relationally*: whatever fits the peer's declared width (3 bits) —
/// exercising the difference-bound layer. The resolved 3-bit set reproduces
/// the dynamic 3-bit observation exactly.
void build_misdeclared_symbolic(proto::Proto& pr) {
  const std::array<int, 2> regs{pr.add_register("sym.R0", 0, 3, Value(0)),
                                pr.add_register("sym.R1", 1, 3, Value(0))};
  for (int me = 0; me < 2; ++me) {
    const int other = 1 - me;
    pr.spawn(me, [=](proto::P p) -> sim::Proc {
      // 3 bits: breaks the 2-bit symbolic budget ⌈log₂ k⌉ + Δ at k=2, Δ=1.
      co_await p.write(regs[static_cast<std::size_t>(me)], Value(5),
                       ir::ValueExpr::rel(regs[static_cast<std::size_t>(other)],
                                          0));
      (void)co_await p.read(regs[static_cast<std::size_t>(other)]);
      co_return Value(me);
    });
  }
}

/// A second canary for the symbolic layer: the claim ⌈log₂ k⌉ + Δ evaluates
/// to 2 bits at (k = 2, Δ = 1), but both processes declare 3-bit registers
/// and write the full 3-bit value 5 — so the declaration and the usage each
/// break the (consistent) symbolic budget, in both tiers identically.
ProtocolSpec misdeclared_symbolic_demo_spec() {
  ProtocolSpec s;
  s.name = "demo-misdeclared-symbolic";
  s.description =
      "intentionally oversized registers against a symbolic claim (linter "
      "self-test; always fails)";
  s.claim = {/*max_register_bits=*/2, /*per_process_bits=*/std::nullopt,
             "none — a deliberately violated symbolic budget"};
  s.step_claim = const_steps(2, "none — one write + one read per process");
  s.claim.symbolic_bits = ir::WidthExpr::add(
      ir::WidthExpr::ceil_log2(ir::WidthExpr::param(ir::Param::K)),
      ir::WidthExpr::param(ir::Param::Delta));
  s.params.n = 2;
  s.params.k = 2;
  s.params.delta = 1;
  s.demo = true;
  s.factory = [] {
    auto sim = std::make_unique<Sim>(2);
    proto::Proto pr(*sim);
    build_misdeclared_symbolic(pr);
    return sim;
  };
  s.describe = [] {
    proto::Proto pr(proto::Proto::ReflectOptions{.n = 2, .params = {}});
    build_misdeclared_symbolic(pr);
    return std::move(pr).take_ir();
  };
  s.explore.max_steps = 50;
  return s;
}

/// The all-params canary's single-source body: every process writes a value
/// it annotates as ⌈log₂ n⌉ bits wide into its own 2-bit register and reads
/// its ring successor. At the spec's n = 3 instantiation ⌈log₂ 3⌉ = 2 fits
/// the declaration and the 2-bit claim exactly; from n = 5 on it needs 3.
void build_holds_small_n(proto::Proto& pr) {
  constexpr std::size_t kN = 3;
  std::array<int, kN> regs{};
  for (std::size_t i = 0; i < kN; ++i) {
    regs[i] = pr.add_register("small.R" + std::to_string(i),
                              static_cast<int>(i), 2, Value(0));
  }
  for (std::size_t me = 0; me < kN; ++me) {
    const std::size_t next = (me + 1) % kN;
    pr.spawn(static_cast<int>(me), [=](proto::P p) -> sim::Proc {
      co_await p.write(regs[me], Value(2),
                       ir::ValueExpr::sym(ir::WidthExpr::ceil_log2(
                           ir::WidthExpr::param(ir::Param::N))));
      (void)co_await p.read(regs[next]);
      co_return Value(static_cast<std::uint64_t>(me));
    });
  }
}

/// The symbolic prover's honesty canary: at its default instantiation
/// (n = 3) every per-env check passes — the declarations, the resolved
/// ⌈log₂ n⌉ write, and the explored executions all fit the 2-bit claim —
/// but the claim is no theorem: the derived write width exceeds 2 bits from
/// n = 5 on. Only `--mode=symbolic` may flag it, with witness environment
/// (n=5, k=1, delta=1, t=0, b=1).
ProtocolSpec holds_small_n_demo_spec() {
  ProtocolSpec s;
  s.name = "demo-holds-small-n";
  s.description =
      "claim holds at the default n=3 but fails from n=5 on "
      "(symbolic-prover self-test; fails only under --mode=symbolic)";
  s.claim = {/*max_register_bits=*/2, /*per_process_bits=*/std::nullopt,
             "none — a claim true at one instantiation, false as a theorem"};
  s.step_claim = const_steps(2, "none — one write + one read per process");
  s.demo = true;
  s.params.n = 3;
  s.factory = [] {
    auto sim = std::make_unique<Sim>(3);
    proto::Proto pr(*sim);
    build_holds_small_n(pr);
    return sim;
  };
  s.describe = [] {
    proto::Proto pr(proto::Proto::ReflectOptions{.n = 3, .params = {}});
    build_holds_small_n(pr);
    return std::move(pr).take_ir();
  };
  s.explore.max_steps = 50;
  return s;
}

/// The loop-shape canary's single-source body: process 0 sizes a NATIVE
/// for-loop from a value it read, instead of declaring the trip count
/// through a combinator. The solo reflection sees the tracked initial 0 and
/// emits one probe read; a perturbed reflection sees 1 and emits two — the
/// structural diff is exactly what the `loop-shape` rule must catch. Every
/// other rule stays quiet: the registers are unbounded, nobody writes, and
/// both are read.
void build_loop_shape(proto::Proto& pr) {
  const int flag = pr.add_register("shape.flag", 0, sim::kUnbounded, Value(0));
  const int probe =
      pr.add_register("shape.probe", 1, sim::kUnbounded, Value(0));
  pr.spawn(0, [=](proto::P p) -> sim::Proc {
    const std::uint64_t k = (co_await p.read(flag)).value.as_u64();
    for (std::uint64_t i = 0; i <= k; ++i) {
      (void)co_await p.read(probe);
    }
    co_return Value(0);
  });
  pr.spawn(1, [=](proto::P p) -> sim::Proc {
    (void)co_await p.read(flag);
    (void)co_await p.read(probe);
    co_return Value(1);
  });
}

/// A canary for the reflection-stability rule: structurally clean under
/// every width/ownership rule, but its IR depends on what reads return, so
/// only `loop-shape` fires — proving the perturbed second reflection works.
ProtocolSpec loop_shape_demo_spec() {
  ProtocolSpec s;
  s.name = "demo-loop-shape";
  s.description =
      "native loop sized by a read value (loop-shape lint self-test; "
      "always fails statically)";
  s.claim = {/*max_register_bits=*/0, /*per_process_bits=*/std::nullopt,
             "none — unbounded registers; the defect is reflective, not "
             "width-related"};
  s.step_claim = const_steps(2, "none — two reads per process as reflected");
  s.demo = true;
  s.params.n = 2;
  s.factory = [] {
    auto sim = std::make_unique<Sim>(2);
    proto::Proto pr(*sim);
    build_loop_shape(pr);
    return sim;
  };
  s.describe = [] {
    proto::Proto pr(proto::Proto::ReflectOptions{.n = 2, .params = {}});
    build_loop_shape(pr);
    return std::move(pr).take_ir();
  };
  s.explore.max_steps = 50;
  return s;
}

/// The interference canary's single-source body. The only cross-process
/// contention on `fi.data` flows through p1's *snapshot*: a footprint
/// analysis that forgot snapshot members are reads would call p0's write of
/// `fi.data` and p1's snapshot independent — and a POR built on that
/// relation would prune schedules whose final snapshots differ. `fi.flag`
/// is ordinary read/write contention (a control pair that must classify
/// dependent either way), and `fi.private` is a bounded register only p0
/// ever touches — the `static-interference` rule must flag it, and must
/// NOT flag `fi.data` (the snapshot read is its contention).
void build_false_independence(proto::Proto& pr) {
  const int data = pr.add_register("fi.data", 0, 2, Value(0));
  const int flag = pr.add_register("fi.flag", 1, 2, Value(0));
  const int priv = pr.add_register("fi.private", 0, 2, Value(0));
  pr.spawn(0, [=](proto::P p) -> sim::Proc {
    co_await p.write(data, Value(2), ir::ValueExpr::constant(2));
    co_await p.write(priv, Value(1), ir::ValueExpr::constant(1));
    (void)co_await p.read(priv);
    (void)co_await p.read(flag);
    co_return Value(0);
  });
  pr.spawn(1, [=](proto::P p) -> sim::Proc {
    co_await p.write(flag, Value(1), ir::ValueExpr::constant(1));
    std::vector<int> members;
    members.push_back(data);
    members.push_back(flag);
    (void)co_await p.snapshot(members);
    co_return Value(1);
  });
}

/// A canary for the interference tier: structurally clean under every
/// width/ownership rule (so plain lint stays green), but shaped so that
/// (a) snapshot-member reads are the only thing making a write/snapshot
/// pair dependent, and (b) one bounded register is provably uncontended —
/// `--mode=interference` must warn on `fi.private` alone.
ProtocolSpec false_independence_demo_spec() {
  ProtocolSpec s;
  s.name = "demo-false-independence";
  s.description =
      "snapshot-only contention plus an uncontended bounded register "
      "(interference-analysis self-test; warns under --mode=interference)";
  s.claim = {/*max_register_bits=*/2, /*per_process_bits=*/std::nullopt,
             "none — a demo pinning the static-interference rule and the "
             "snapshot-read footprint"};
  s.step_claim = const_steps(4, "none — 4 ops on the longer process");
  s.demo = true;
  s.params.n = 2;
  s.factory = [] {
    auto sim = std::make_unique<Sim>(2);
    proto::Proto pr(*sim);
    build_false_independence(pr);
    return sim;
  };
  s.describe = [] {
    proto::Proto pr(proto::Proto::ReflectOptions{.n = 2, .params = {}});
    build_false_independence(pr);
    return std::move(pr).take_ir();
  };
  s.explore.max_steps = 50;
  return s;
}

/// The termination canary's single-source body: process 0 spins on a
/// [0, ∞] retry loop that is declared through `loop_until` — NOT through
/// `serve` — so the IR carries an unbounded loop with no serve marker and
/// no round-budget cap. The gate register starts at 1, so every actual
/// execution breaks out of the loop on its first iteration: the per-env
/// tiers (and exhaustive exploration) see a perfectly well-behaved
/// 2-step process. Only the step engine can tell that nothing *proves*
/// the loop finite. Both registers are unbounded and read by both
/// processes, so every width/ownership/dead-register rule stays quiet.
void build_unbounded_loop(proto::Proto& pr) {
  const int gate = pr.add_register("ub.gate", 0, sim::kUnbounded, Value(1));
  const int out = pr.add_register("ub.out", 1, sim::kUnbounded, Value(0));
  pr.spawn(0, [=](proto::P p) -> sim::Proc {
    co_await p.loop_until(
        ir::Count::between(0, ir::kMany), [&]() -> sim::Task<proto::LoopCtl> {
          const bool ready = (co_await p.read(gate)).value.as_u64() != 0;
          co_return ready ? proto::LoopCtl::Break : proto::LoopCtl::Continue;
        });
    (void)co_await p.read(out);
    co_return Value(0);
  });
  pr.spawn(1, [=](proto::P p) -> sim::Proc {
    (void)co_await p.read(gate);
    (void)co_await p.read(out);
    co_return Value(1);
  });
}

/// A canary for the termination rule: dynamically clean (the loop always
/// breaks immediately at this instantiation), statically clean under every
/// width rule, symbolically clean (no symbolic writes) — but its [0, ∞]
/// loop is neither a declared serve pump nor capped by a round budget, so
/// `--mode=steps` must raise `static-termination` while every other mode
/// passes.
ProtocolSpec unbounded_loop_demo_spec() {
  ProtocolSpec s;
  s.name = "demo-unbounded-loop";
  s.description =
      "undeclared [0, ∞] retry loop that happens to break immediately "
      "(termination-rule self-test; fails only under --mode=steps)";
  s.claim = {/*max_register_bits=*/0, /*per_process_bits=*/std::nullopt,
             "none — unbounded registers; the defect is the missing "
             "termination argument, not width"};
  s.step_claim.source =
      "none — no finite step claim is possible for an unproven loop";
  s.demo = true;
  s.params.n = 2;
  s.factory = [] {
    auto sim = std::make_unique<Sim>(2);
    proto::Proto pr(*sim);
    build_unbounded_loop(pr);
    return sim;
  };
  s.describe = [] {
    proto::Proto pr(proto::Proto::ReflectOptions{.n = 2, .params = {}});
    build_unbounded_loop(pr);
    return std::move(pr).take_ir();
  };
  s.explore.max_steps = 50;
  return s;
}

}  // namespace

const std::vector<ProtocolSpec>& builtin_protocols() {
  static const std::vector<ProtocolSpec> specs = [] {
    std::vector<ProtocolSpec> v;
    v.push_back(alg1_spec());
    v.push_back(packed_alg1_spec());
    v.push_back(alg2_spec());
    v.push_back(packed_alg2_spec());
    v.push_back(lemma82_spec());
    v.push_back(alg6_spec());
    v.push_back(fast_agreement_spec());
    v.push_back(alg4_spec());
    v.push_back(alg3_spec());
    v.push_back(alg5_spec());
    v.push_back(baseline_spec());
    v.push_back(sec4_quantized_spec());
    v.push_back(sec6_spec());
    v.push_back(abd_stack_spec());
    v.push_back(ring_stack_spec());
    v.push_back(misdeclared_demo_spec());
    v.push_back(misdeclared_symbolic_demo_spec());
    v.push_back(holds_small_n_demo_spec());
    v.push_back(loop_shape_demo_spec());
    v.push_back(false_independence_demo_spec());
    v.push_back(unbounded_loop_demo_spec());
    return v;
  }();
  return specs;
}

const ProtocolSpec* find_protocol(const std::string& name) {
  for (const ProtocolSpec& s : builtin_protocols()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace bsr::analysis
