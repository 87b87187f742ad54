// Tests for the symbolic width prover (analysis/static/prover.h): the
// normal form, the eval-preservation contract, the three-valued proof
// engine, and — the load-bearing part — a differential oracle asserting
// that prover verdicts never contradict per-env evaluation, neither on
// hand-picked expression pairs nor on any width obligation of any registry
// protocol.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "analysis/claims.h"
#include "analysis/static/checker.h"
#include "analysis/static/prover.h"

namespace bsr::analysis::ir {
namespace {

WidthExpr C(long c) { return WidthExpr::constant(c); }
WidthExpr P(Param p) { return WidthExpr::param(p); }
WidthExpr add(WidthExpr a, WidthExpr b) {
  return WidthExpr::add(std::move(a), std::move(b));
}
WidthExpr mul(WidthExpr a, WidthExpr b) {
  return WidthExpr::mul(std::move(a), std::move(b));
}
WidthExpr lg(WidthExpr a) { return WidthExpr::ceil_log2(std::move(a)); }
WidthExpr mx(WidthExpr a, WidthExpr b) {
  return WidthExpr::max(std::move(a), std::move(b));
}

TEST(Prover, AssumptionGridIsExactAndOrdered) {
  const std::vector<ParamEnv>& g = assumption_grid();
  ASSERT_FALSE(g.empty());
  // Minimal env first (witnesses search in ascending order).
  EXPECT_EQ(g.front(), (ParamEnv{1, 1, 1, 0, 1}));
  long count = 0;
  for (long n = 1; n <= kCutoffN; ++n) {
    count += n * n * kCutoffAux * kCutoffAux;  // k ≤ n choices × t < n
  }
  EXPECT_EQ(static_cast<long>(g.size()), count);
  for (const ParamEnv& env : g) {
    EXPECT_TRUE(satisfies_assumptions(env)) << render_env(env);
    EXPECT_LE(env.n, kCutoffN);
  }
  EXPECT_FALSE(satisfies_assumptions(ParamEnv{0, 0, 0, 0, 0}));
  EXPECT_FALSE(satisfies_assumptions(ParamEnv{2, 3, 1, 0, 1}));  // k > n
  EXPECT_FALSE(satisfies_assumptions(ParamEnv{2, 1, 1, 2, 1}));  // t ≥ n
}

TEST(Prover, NormalFormIsCanonical) {
  // Associativity and commutativity of + and · vanish.
  EXPECT_EQ(normalize(add(P(Param::N), add(P(Param::K), C(3)))),
            normalize(add(add(C(3), P(Param::N)), P(Param::K))));
  EXPECT_EQ(normalize(mul(P(Param::N), P(Param::K))),
            normalize(mul(P(Param::K), P(Param::N))));
  // Multiplication distributes over addition.
  EXPECT_EQ(normalize(mul(P(Param::N), add(P(Param::K), C(1)))),
            normalize(add(mul(P(Param::N), P(Param::K)), P(Param::N))));
  // Like monomials merge; cancelling terms vanish.
  EXPECT_EQ(normalize(add(P(Param::N), P(Param::N))),
            normalize(mul(C(2), P(Param::N))));
  // Constant subterms fold through ceil_log2 (with the ≤ 1 ↦ 0 clamp) and
  // constant-gap max arms collapse.
  EXPECT_EQ(normalize(lg(C(8))), normalize(C(3)));
  EXPECT_EQ(normalize(lg(C(1))), normalize(C(0)));
  EXPECT_EQ(normalize(lg(C(-4))), normalize(C(0)));
  EXPECT_EQ(normalize(mx(P(Param::N), add(P(Param::N), C(2)))),
            normalize(add(P(Param::N), C(2))));
  EXPECT_EQ(normalize(mx(P(Param::N), P(Param::N))), normalize(P(Param::N)));
  // max is commutative in the normal form.
  EXPECT_EQ(normalize(mx(P(Param::N), P(Param::B))),
            normalize(mx(P(Param::B), P(Param::N))));
  // Distinct terms stay distinct.
  EXPECT_FALSE(normalize(P(Param::N)) == normalize(P(Param::K)));
  EXPECT_FALSE(normalize(lg(P(Param::N))) == normalize(lg(P(Param::K))));
}

/// A small zoo of width shapes covering every constructor, used by both the
/// eval-preservation and the verdict-consistency sweeps.
std::vector<WidthExpr> expression_zoo() {
  return {
      C(0),
      C(5),
      P(Param::N),
      P(Param::T),
      add(P(Param::N), C(1)),
      add(P(Param::T), mul(C(3), P(Param::B))),
      mul(P(Param::N), P(Param::K)),
      mul(C(3), add(P(Param::T), C(1))),  // Theorem 1.3's 3(t+1)
      lg(P(Param::K)),                    // §4's ⌈log₂ k⌉
      add(lg(P(Param::K)), P(Param::Delta)),
      lg(add(mul(C(2), P(Param::Delta)), C(1))),  // ⌈log₂(2Δ+1)⌉
      mx(P(Param::N), P(Param::K)),
      mx(lg(P(Param::N)), P(Param::B)),
      add(mx(P(Param::K), P(Param::Delta)), lg(P(Param::N))),
      lg(mul(P(Param::N), P(Param::N))),
  };
}

TEST(Prover, NormalizePreservesEvalOnTheGrid) {
  for (const WidthExpr& e : expression_zoo()) {
    const Poly p = normalize(e);
    for (const ParamEnv& env : assumption_grid()) {
      ASSERT_EQ(p.eval(env), e.eval(env))
          << e.render() << " vs " << p.render() << " at " << render_env(env);
    }
  }
}

TEST(Prover, ProvesRelationalAndMonotoneFacts) {
  // The standing assumptions themselves.
  EXPECT_EQ(prove_le(P(Param::K), P(Param::N)).kind, Verdict::Kind::Proved);
  EXPECT_EQ(prove_le(add(P(Param::T), C(1)), P(Param::N)).kind,
            Verdict::Kind::Proved);
  EXPECT_EQ(prove_le(C(3), C(7)).kind, Verdict::Kind::Proved);
  // Reflexivity through distinct but equivalent spellings.
  EXPECT_EQ(prove_le(add(P(Param::N), P(Param::N)),
                     mul(C(2), P(Param::N)))
                .kind,
            Verdict::Kind::Proved);
  // ceil_log2 monotone over k ≤ n.
  EXPECT_EQ(prove_le(lg(P(Param::K)), lg(P(Param::N))).kind,
            Verdict::Kind::Proved);
  // ⌈log₂ x⌉ ≤ x − 1 dominance (x ≥ 1 here).
  EXPECT_EQ(prove_le(lg(P(Param::N)), P(Param::N)).kind,
            Verdict::Kind::Proved);
  // max split on the left and arm domination on the right.
  EXPECT_EQ(prove_le(mx(P(Param::K), P(Param::T)), P(Param::N)).kind,
            Verdict::Kind::Proved);
  EXPECT_EQ(prove_le(P(Param::K), mx(P(Param::N), P(Param::B))).kind,
            Verdict::Kind::Proved);
  // The log-vs-constant unfold: ⌈log₂ k⌉ ≤ 6 ⟺ k ≤ 64 is not a theorem,
  // but ⌈log₂ 2Δ+1⌉ ≥ … — check the positive direction on a bounded body:
  // ⌈log₂ 8⌉ = 3 ≤ 3 via constant folding.
  EXPECT_EQ(prove_le(lg(C(8)), C(3)).kind, Verdict::Kind::Proved);
}

TEST(Prover, RefutesWithMinimalGridWitness) {
  // The canary shape: ⌈log₂ n⌉ ≤ 2 first fails at n = 5.
  const Verdict v = prove_le(lg(P(Param::N)), C(2));
  ASSERT_EQ(v.kind, Verdict::Kind::Refuted);
  EXPECT_EQ(v.witness, (ParamEnv{5, 1, 1, 0, 1})) << render_env(v.witness);
  EXPECT_TRUE(satisfies_assumptions(v.witness));
  // n ≤ k is the assumption reversed: first fails at n = 2, k = 1.
  const Verdict r = prove_le(P(Param::N), P(Param::K));
  ASSERT_EQ(r.kind, Verdict::Kind::Refuted);
  EXPECT_GT(P(Param::N).eval(r.witness), P(Param::K).eval(r.witness));
  // A constant gap is refuted at the minimal env outright.
  const Verdict c = prove_le(C(4), C(3));
  ASSERT_EQ(c.kind, Verdict::Kind::Refuted);
  EXPECT_EQ(c.witness, (ParamEnv{1, 1, 1, 0, 1}));
}

TEST(Prover, UnknownFallsBackToTheCutoffGrid) {
  // n ≤ n·Δ holds (Δ ≥ 1) but needs relational reasoning the rule set
  // does not implement — the honest verdict is Unknown, and the grid
  // refuter finds nothing, which is what the checker downgrades to
  // "n ≤ cutoff".
  const WidthExpr lhs = P(Param::N);
  const WidthExpr rhs = mul(P(Param::N), P(Param::Delta));
  EXPECT_EQ(prove_le(lhs, rhs).kind, Verdict::Kind::Unknown);
  EXPECT_EQ(refute_le_on_grid(lhs, rhs), std::nullopt);
}

/// The expression-level differential oracle: for every ordered pair from
/// the zoo (plus constants), the prover's verdict must be consistent with
/// evaluating both sides at every grid env — Proved means no violation
/// anywhere, Refuted means the witness violates under the assumptions.
TEST(Prover, VerdictsNeverContradictPerEnvEvaluation) {
  std::vector<WidthExpr> zoo = expression_zoo();
  zoo.push_back(C(2));
  zoo.push_back(C(6));
  int proved = 0;
  int refuted = 0;
  for (const WidthExpr& lhs : zoo) {
    for (const WidthExpr& rhs : zoo) {
      const Verdict v = prove_le(lhs, rhs);
      if (v.kind == Verdict::Kind::Proved) {
        ++proved;
        for (const ParamEnv& env : assumption_grid()) {
          ASSERT_LE(lhs.eval(env), rhs.eval(env))
              << lhs.render() << " ≤ " << rhs.render() << " 'proved' ("
              << v.how << ") but violated at " << render_env(env);
        }
      } else if (v.kind == Verdict::Kind::Refuted) {
        ++refuted;
        ASSERT_TRUE(satisfies_assumptions(v.witness))
            << render_env(v.witness);
        ASSERT_GT(lhs.eval(v.witness), rhs.eval(v.witness))
            << lhs.render() << " ≤ " << rhs.render()
            << " 'refuted' but the witness " << render_env(v.witness)
            << " does not violate it";
      }
    }
  }
  // The engine must actually decide things, not shrug everything off.
  EXPECT_GT(proved, 50);
  EXPECT_GT(refuted, 50);
}

/// The registry-level differential oracle (the ISSUE's acceptance sweep):
/// every width obligation of every builtin protocol gets a verdict that
/// per-env evaluation over the whole assumption grid cannot contradict.
TEST(Prover, RegistryObligationsMatchPerEnvEvaluation) {
  int obligations = 0;
  for (const ProtocolSpec& spec : builtin_protocols()) {
    if (!spec.describe) continue;
    ir::ProtocolIR p = spec.describe();
    p.params = spec.params;
    const std::vector<ir::RegisterSummary> sums =
        ir::summarize_full(p).registers;
    for (const WidthObligation& o : width_obligations(spec, p, sums)) {
      ++obligations;
      const Verdict v = prove_le(o.lhs, o.budget);
      switch (v.kind) {
        case Verdict::Kind::Proved:
          for (const ParamEnv& env : assumption_grid()) {
            ASSERT_LE(o.lhs.eval(env), o.budget.eval(env))
                << spec.name << " '" << o.reg_name << "' (" << o.what
                << "): proved obligation violated at " << render_env(env);
          }
          break;
        case Verdict::Kind::Refuted:
          ASSERT_TRUE(satisfies_assumptions(v.witness));
          ASSERT_GT(o.lhs.eval(v.witness), o.budget.eval(v.witness))
              << spec.name << " '" << o.reg_name << "': bogus witness "
              << render_env(v.witness);
          break;
        case Verdict::Kind::Unknown:
          // Unknown must mean "no grid counterexample" — otherwise the
          // prover should have refuted.
          ASSERT_EQ(refute_le_on_grid(o.lhs, o.budget), std::nullopt)
              << spec.name << " '" << o.reg_name << "'";
          break;
      }
    }
  }
  EXPECT_GT(obligations, 0);
}

/// Every non-demo registry protocol must carry a positive machine-checked
/// verdict ("all params" or the cutoff form — never refuted), and the three
/// width canaries must be refuted.
TEST(Prover, RegistryClaimsVerifyAndCanariesRefute) {
  for (const ProtocolSpec& spec : builtin_protocols()) {
    if (!spec.describe) continue;
    const std::string status = verify_claims(spec).status;
    if (spec.demo) continue;  // canaries asserted below by name
    EXPECT_TRUE(status == "all params" || status.rfind("n <= ", 0) == 0)
        << spec.name << ": " << status;
  }
  for (const char* name :
       {"demo-misdeclared", "demo-misdeclared-symbolic",
        "demo-holds-small-n"}) {
    const ProtocolSpec* spec = find_protocol(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(verify_claims(*spec).status, "refuted") << name;
  }
}

/// End-to-end canary semantics: clean under the static tier at its own
/// instantiation, refuted with the documented witness under the symbolic
/// tier — the honesty property the new rule family hinges on.
TEST(Prover, HoldsSmallNCanaryRefutedOnlySymbolically) {
  const ProtocolSpec* spec = find_protocol("demo-holds-small-n");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport stat = analyze_static(*spec);
  EXPECT_EQ(stat.errors(), 0) << "canary must pass per-env static checks";
  EXPECT_EQ(stat.claim_verified, "");
  const ProtocolReport sym = analyze_symbolic(*spec);
  EXPECT_EQ(sym.mode, LintMode::Symbolic);
  EXPECT_EQ(sym.claim_verified, "refuted");
  EXPECT_GT(sym.errors(), 0);
  bool witnessed = false;
  for (const Diagnostic& d : sym.diagnostics) {
    if (d.rule == "static-width-all-n") {
      EXPECT_NE(d.message.find("(n=5, k=1, delta=1, t=0, b=1)"),
                std::string::npos)
          << d.message;
      witnessed = true;
    }
  }
  EXPECT_TRUE(witnessed);
  for (const RegisterAudit& a : sym.registers) {
    EXPECT_EQ(a.verified, "refuted") << a.name;
  }
}

}  // namespace
}  // namespace bsr::analysis::ir
