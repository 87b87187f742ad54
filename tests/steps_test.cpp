// Tests for the symbolic step-complexity engine (analysis/static/steps.h)
// and the checker's step tier (step_obligations / verify_step_claims /
// analyze_steps / cross_validate_steps): the per-op cost model, loop and
// round folding, [0, ∞]-loop classification (round-budget cap / serve
// exemption / static-termination), all-params verification of the registry
// step claims, and the static↔dynamic cross-validator.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/claims.h"
#include "analysis/diag.h"
#include "analysis/static/checker.h"
#include "analysis/static/domain.h"
#include "analysis/static/ir.h"
#include "analysis/static/steps.h"

namespace bsr::analysis {
namespace {

using ir::Count;
using ir::Instr;
using ir::kMany;
using ir::ParamEnv;
using ir::WidthExpr;

/// A one-process protocol around `body`, with a single unbounded register
/// so register ops have a valid target.
ir::ProtocolIR one_proc(std::vector<Instr> body, long max_rounds = kMany) {
  ir::ProtocolIR p;
  p.registers.push_back({"r", 0, ir::kUnboundedWidth, false, false});
  p.processes.push_back({0, std::move(body)});
  p.max_rounds = max_rounds;
  p.params = ParamEnv{2, 2, 1, 0, 1};
  return p;
}

long eval_bound(const ir::ProcessStepBound& b, const ParamEnv& env) {
  return b.bound.eval(env);
}

TEST(StepBounds, EveryAtomicOpCostsOneStep) {
  const ir::ProtocolIR p = one_proc({
      ir::read(0),
      ir::write(0, ir::ValueExpr::constant(1)),
      ir::snapshot({0}),
      ir::write_snapshot(0, ir::ValueExpr::constant(1), {0}),
      ir::send(0, ir::ValueExpr::constant(0)),
      ir::recv(),
  });
  const ir::StepReport r = ir::step_bounds(p);
  ASSERT_EQ(r.processes.size(), 1u);
  const ir::ProcessStepBound& b = r.processes[0];
  EXPECT_TRUE(b.finite);
  EXPECT_FALSE(b.serve);
  EXPECT_TRUE(b.nonterminating.empty());
  EXPECT_EQ(b.bound.render(), "6");
}

TEST(StepBounds, FiniteLoopsScaleByTheUpperTripCount) {
  // loop [1, 3] { read; read } inside loop [2, 2] { ... } → 2 · (3 · 2) = 12.
  const ir::ProtocolIR p = one_proc({ir::loop(
      Count::exactly(2),
      {ir::loop(Count::between(1, 3), {ir::read(0), ir::read(0)})})});
  const ir::StepReport r = ir::step_bounds(p);
  ASSERT_EQ(r.processes.size(), 1u);
  EXPECT_TRUE(r.processes[0].finite);
  EXPECT_EQ(eval_bound(r.processes[0], p.params), 12);
  // maybe {} executes 0 or 1 times: the bound charges the full body once.
  const ir::ProtocolIR q =
      one_proc({ir::maybe({ir::read(0), ir::read(0)}), ir::read(0)});
  EXPECT_EQ(eval_bound(ir::step_bounds(q).processes[0], q.params), 3);
}

TEST(StepBounds, RoundsCostOnlyTheirBody) {
  const ir::ProtocolIR p = one_proc(
      {ir::round({ir::read(0), ir::read(0)}), ir::round({ir::read(0)})}, 2);
  EXPECT_EQ(eval_bound(ir::step_bounds(p).processes[0], p.params), 3);
}

TEST(StepBounds, UndeclaredInfiniteLoopIsNonterminating) {
  const ir::ProtocolIR p =
      one_proc({ir::loop(Count::between(0, kMany), {ir::read(0)})});
  const ir::StepReport r = ir::step_bounds(p);
  const ir::ProcessStepBound& b = r.processes[0];
  EXPECT_FALSE(b.finite);
  EXPECT_FALSE(b.serve);
  EXPECT_FALSE(b.bound.defined());
  ASSERT_EQ(b.nonterminating.size(), 1u);
  EXPECT_NE(b.nonterminating[0].find("loop [0, ∞]"), std::string::npos);
}

TEST(StepBounds, ServeLoopIsExemptFromTheTerminationRule) {
  const ir::ProtocolIR p = one_proc({ir::serve_loop({ir::recv()})});
  const ir::StepReport r = ir::step_bounds(p);
  const ir::ProcessStepBound& b = r.processes[0];
  EXPECT_FALSE(b.finite);
  EXPECT_TRUE(b.serve);
  EXPECT_TRUE(b.nonterminating.empty());
}

TEST(StepBounds, RoundBudgetCapsAnInfiniteRoundLoop) {
  // Every iteration completes a round and the protocol declares at most 5
  // rounds, so the [0, ∞] loop runs at most 5 times: 5 · 2 = 10 steps.
  const std::vector<Instr> body = {ir::loop(
      Count::between(0, kMany),
      {ir::round({ir::read(0), ir::write(0, ir::ValueExpr::constant(1))})})};
  const ir::ProtocolIR capped = one_proc(body, 5);
  const ir::StepReport capped_report = ir::step_bounds(capped);
  const ir::ProcessStepBound& b = capped_report.processes[0];
  EXPECT_TRUE(b.finite);
  EXPECT_TRUE(b.nonterminating.empty());
  EXPECT_EQ(eval_bound(b, capped.params), 10);
  // The same loop with no declared round budget has no termination argument.
  const ir::ProtocolIR uncapped = one_proc(body, kMany);
  const ir::StepReport uncapped_report = ir::step_bounds(uncapped);
  EXPECT_FALSE(uncapped_report.processes[0].finite);
  EXPECT_EQ(uncapped_report.processes[0].nonterminating.size(), 1u);
  // An iteration that may complete zero rounds (round inside maybe) is not
  // capped by the budget either — the loop could spin without consuming it.
  const ir::ProtocolIR zero_round = one_proc(
      {ir::loop(Count::between(0, kMany),
                {ir::maybe({ir::round({ir::read(0)})})})},
      5);
  const ir::StepReport zero_round_report = ir::step_bounds(zero_round);
  EXPECT_FALSE(zero_round_report.processes[0].finite);
  EXPECT_EQ(zero_round_report.processes[0].nonterminating.size(), 1u);
}

TEST(StepBounds, HugeTripCountsSaturateInsteadOfOverflowing) {
  const long huge = std::numeric_limits<long>::max() / 2;
  const ir::ProtocolIR p = one_proc({ir::loop(
      Count::between(0, huge), {ir::read(0), ir::read(0), ir::read(0)})});
  const ir::StepReport r = ir::step_bounds(p);
  const ir::ProcessStepBound& b = r.processes[0];
  ASSERT_TRUE(b.finite);
  // 3 · (LONG_MAX / 2) overflows a long; the fold must clamp, not wrap.
  EXPECT_EQ(eval_bound(b, p.params), std::numeric_limits<long>::max());
}

TEST(StepBounds, RegistryBoundsCoverTheirStepClaims) {
  for (const ProtocolSpec& spec : builtin_protocols()) {
    if (!spec.describe) continue;
    const ir::ProtocolIR p = spec.describe();
    const ir::StepReport r = ir::step_bounds(p);
    ASSERT_EQ(r.processes.size(), p.processes.size()) << spec.name;
    if (!spec.step_claim.max_steps.defined()) continue;
    const long budget = spec.step_claim.max_steps.eval(spec.params);
    for (const ir::ProcessStepBound& b : r.processes) {
      ASSERT_TRUE(b.finite) << spec.name << " p" << b.pid;
      EXPECT_LE(b.bound.eval(spec.params), budget)
          << spec.name << " p" << b.pid;
    }
  }
}

TEST(StepBounds, ServeStacksAreServeFlaggedNotNonterminating) {
  for (const char* name : {"sec6-stack", "abd-stack", "ring-stack"}) {
    const ProtocolSpec* spec = find_protocol(name);
    ASSERT_NE(spec, nullptr) << name;
    const ir::StepReport r = ir::step_bounds(spec->describe());
    bool any_serve = false;
    for (const ir::ProcessStepBound& b : r.processes) {
      EXPECT_TRUE(b.nonterminating.empty()) << name << " p" << b.pid;
      any_serve = any_serve || b.serve;
    }
    EXPECT_TRUE(any_serve) << name;
  }
}

TEST(StepObligations, ClaimlessSpecsContributeNone) {
  const ProtocolSpec* serve = find_protocol("sec6-stack");
  ASSERT_NE(serve, nullptr);
  EXPECT_TRUE(step_obligations(*serve, serve->describe()).empty());
  const ProtocolSpec* alg1 = find_protocol("alg1");
  ASSERT_NE(alg1, nullptr);
  const auto obligations = step_obligations(*alg1, alg1->describe());
  EXPECT_EQ(obligations.size(), 2u);  // one per process
  for (const StepObligation& o : obligations) {
    EXPECT_TRUE(o.bound.defined());
    EXPECT_TRUE(o.budget.defined());
  }
}

TEST(VerifyStepClaims, RefutesAnUndersizedClaimWithAWitness) {
  ProtocolSpec spec;
  spec.name = "steps-unit";
  spec.step_claim.max_steps = WidthExpr::constant(1);
  spec.step_claim.source = "unit test";
  spec.params = ParamEnv{2, 2, 1, 0, 1};
  const ir::ProtocolIR p =
      one_proc({ir::read(0), ir::read(0), ir::read(0)});
  const StepVerification v = verify_step_claims(spec, p);
  EXPECT_EQ(v.status, "refuted");
  ASSERT_EQ(v.refutations.size(), 1u);
  EXPECT_EQ(v.refutations[0].rule, "static-step-bound");
  EXPECT_EQ(v.refutations[0].pid, 0);
  EXPECT_NE(v.refutations[0].message.find("witness"), std::string::npos);
}

TEST(VerifyStepClaims, RegistryStepClaimsHoldForAllParams) {
  for (const ProtocolSpec& spec : builtin_protocols()) {
    if (!spec.describe || !spec.step_claim.max_steps.defined()) continue;
    const StepVerification v = verify_step_claims(spec, spec.describe());
    EXPECT_EQ(v.status, "all params") << spec.name;
    EXPECT_TRUE(v.refutations.empty()) << spec.name;
  }
}

TEST(AnalyzeSteps, CanaryRaisesStaticTermination) {
  const ProtocolSpec* spec = find_protocol("demo-unbounded-loop");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport rep = analyze_steps(*spec);
  EXPECT_EQ(rep.mode, LintMode::Steps);
  ASSERT_EQ(rep.diagnostics.size(), 1u);
  EXPECT_EQ(rep.diagnostics[0].rule, "static-termination");
  EXPECT_EQ(rep.diagnostics[0].pid, 0);
  EXPECT_EQ(rep.errors(), 1);
  // The per-env tiers must stay quiet on the canary: the defect is the
  // missing termination argument, not anything width-related.
  EXPECT_EQ(analyze_static(*spec).errors(), 0);
  EXPECT_EQ(analyze_protocol(*spec).errors(), 0);
}

TEST(AnalyzeSteps, FillsOneAuditRowPerProcess) {
  const ProtocolSpec* spec = find_protocol("alg1");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport rep = analyze_steps(*spec);
  ASSERT_EQ(rep.steps.size(), 2u);
  for (const StepAudit& a : rep.steps) {
    EXPECT_TRUE(a.finite);
    EXPECT_GT(a.bound_eval, 0);
    EXPECT_EQ(a.observed, -1);  // static half: nothing observed yet
    EXPECT_EQ(a.verified, "all params");
  }
  EXPECT_EQ(rep.step_verified, "all params");
  EXPECT_EQ(rep.step_claim_expr, "7");
}

TEST(CrossValidateSteps, ObservationsAboveTheBoundAreDisagreements) {
  const ProtocolSpec* spec = find_protocol("alg1");
  ASSERT_NE(spec, nullptr);
  ProtocolReport rep = analyze_steps(*spec);
  ASSERT_EQ(rep.steps.size(), 2u);
  // At or below the bound: clean.
  rep.steps[0].observed = rep.steps[0].bound_eval;
  rep.steps[1].observed = rep.steps[1].bound_eval - 1;
  EXPECT_TRUE(cross_validate_steps(*spec, rep).empty());
  // Above it: one disagreement for the offending process.
  rep.steps[1].observed = rep.steps[1].bound_eval + 1;
  const std::vector<Diagnostic> dis = cross_validate_steps(*spec, rep);
  ASSERT_EQ(dis.size(), 1u);
  EXPECT_EQ(dis[0].rule, "static-dynamic-disagreement");
  EXPECT_EQ(dis[0].pid, 1);
  // Rows without a finite bound or without an observation are skipped.
  rep.steps[1].observed = rep.steps[1].bound_eval;
  rep.steps[0].finite = false;
  rep.steps[0].observed = 1000000;
  EXPECT_TRUE(cross_validate_steps(*spec, rep).empty());
}

TEST(CrossValidateSteps, ExplorerNeverExceedsTheStaticBound) {
  // The end-to-end contract on a cheap exhaustive spec: fold the IR, run
  // every schedule, and check observed ≤ bound at the spec's ParamEnv.
  const ProtocolSpec* spec = find_protocol("baseline-unbounded");
  ASSERT_NE(spec, nullptr);
  ProtocolReport rep = analyze_steps(*spec);
  const ProtocolReport dyn = analyze_protocol(*spec);
  ASSERT_EQ(dyn.observed_steps.size(), rep.steps.size());
  for (StepAudit& a : rep.steps) {
    a.observed = dyn.observed_steps[static_cast<std::size_t>(a.pid)];
    EXPECT_GT(a.observed, 0);
  }
  EXPECT_TRUE(cross_validate_steps(*spec, rep).empty());
}

}  // namespace
}  // namespace bsr::analysis
