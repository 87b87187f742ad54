// Tests of the static analysis tier (src/analysis/static): the count and
// value abstract domains, the protocol IR and its abstract interpreter, the
// static checker's diagnostics, and the static/dynamic cross-validator that
// keeps every describe() hook honest against its factory.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/claims.h"
#include "analysis/diag.h"
#include "analysis/static/checker.h"
#include "analysis/static/domain.h"
#include "analysis/static/ir.h"
#include "sim/sim.h"
#include "util/errors.h"

namespace bsr::analysis {
namespace {

using ir::Count;
using ir::kMany;
using ir::ValueExpr;

TEST(CountDomain, SeqAddsAndPropagatesInfinity) {
  EXPECT_EQ(Count::exactly(2).seq(Count::between(1, 3)), Count::between(3, 5));
  EXPECT_EQ(Count::exactly(1).seq(Count::between(0, kMany)),
            Count::between(1, kMany));
  EXPECT_TRUE(Count::between(0, kMany).unbounded());
  EXPECT_FALSE(Count::exactly(7).unbounded());
}

TEST(CountDomain, JoinTakesTheHull) {
  EXPECT_EQ(Count::exactly(2).join(Count::exactly(5)), Count::between(2, 5));
  EXPECT_EQ(Count::between(1, 3).join(Count::between(0, kMany)),
            Count::between(0, kMany));
}

TEST(CountDomain, TimesMultipliesIntervals) {
  EXPECT_EQ(Count::exactly(2).times(Count::between(1, 3)),
            Count::between(2, 6));
  // A loop that may run zero times can contribute zero operations.
  EXPECT_EQ(Count::exactly(1).times(Count::between(0, 1)),
            Count::between(0, 1));
  // 0 iterations dominate an unbounded body count, and vice versa.
  EXPECT_EQ(Count::between(0, kMany).times(Count::exactly(0)),
            Count::exactly(0));
  EXPECT_EQ(Count::exactly(1).times(Count::between(1, kMany)),
            Count::between(1, kMany));
}

TEST(CountDomain, SeqSaturatesAtTheLongBoundary) {
  const long max = std::numeric_limits<long>::max();
  const Count sum = Count::exactly(max - 1).seq(Count::exactly(max - 1));
  EXPECT_EQ(sum.lo, max);
  EXPECT_EQ(sum.hi, max);
  // ∞ absorbs the upper bound; the lower bound still saturates finitely.
  const Count inf = Count::exactly(max - 1).seq(Count::between(max - 1, kMany));
  EXPECT_EQ(inf.lo, max);
  EXPECT_EQ(inf.hi, kMany);
}

TEST(CountDomain, JoinSaturatedAndInfiniteCountsKeepsTheHull) {
  const long max = std::numeric_limits<long>::max();
  EXPECT_EQ(Count::between(0, max).join(Count::between(5, kMany)),
            Count::between(0, kMany));
  EXPECT_EQ(Count::exactly(max).join(Count::exactly(0)),
            Count::between(0, max));
}

TEST(CountDomain, TimesSaturatesInsteadOfOverflowing) {
  const long max = std::numeric_limits<long>::max();
  // (LONG_MAX − 1) · [2, 3] would overflow a long on both endpoints; the
  // domain must clamp to LONG_MAX, not wrap (signed overflow is UB).
  const Count prod = Count::exactly(max - 1).times(Count::between(2, 3));
  EXPECT_EQ(prod.lo, max);
  EXPECT_EQ(prod.hi, max);
  // Zero trips dominate a saturated body on either side of the ∞ boundary.
  EXPECT_EQ(Count::exactly(max).times(Count::exactly(0)), Count::exactly(0));
  EXPECT_EQ(Count::between(max, kMany).times(Count::exactly(0)),
            Count::exactly(0));
  // A saturated trip count against an unbounded body stays ∞ above and
  // saturates below.
  const Count mixed = Count::between(2, kMany).times(Count::exactly(max));
  EXPECT_EQ(mixed.lo, max);
  EXPECT_EQ(mixed.hi, kMany);
}

TEST(ValueDomain, RangesBitsAndJoins) {
  EXPECT_EQ(ValueExpr::constant(0).max_bits(), 0);
  EXPECT_EQ(ValueExpr::constant(5).max_bits(), 3);
  EXPECT_EQ(ValueExpr::bits(6), ValueExpr::range(0, 63));
  EXPECT_EQ(ValueExpr::any().max_bits(), -1);
  EXPECT_EQ(ValueExpr::range(2, 4).join(ValueExpr::constant(7)),
            ValueExpr::range(2, 7));
  EXPECT_EQ(ValueExpr::range(0, 1).join(ValueExpr::any()), ValueExpr::any());
  EXPECT_THROW((void)ValueExpr::range(3, 1), UsageError);
  EXPECT_THROW((void)ValueExpr::bits(64), UsageError);
}

TEST(ValueDomain, BitWidthMirrorsValue) {
  EXPECT_EQ(ir::bit_width_u64(0), 0);
  EXPECT_EQ(ir::bit_width_u64(1), 1);
  EXPECT_EQ(ir::bit_width_u64(21), 5);
  EXPECT_EQ(ir::bit_width_u64(~std::uint64_t{0}), 64);
}

TEST(WidthDomain, CeilLog2EdgeCases) {
  EXPECT_EQ(ir::ceil_log2_u64(0), 0);
  EXPECT_EQ(ir::ceil_log2_u64(1), 0);
  EXPECT_EQ(ir::ceil_log2_u64(2), 1);
  EXPECT_EQ(ir::ceil_log2_u64(3), 2);
  EXPECT_EQ(ir::ceil_log2_u64(4), 2);
  EXPECT_EQ(ir::ceil_log2_u64(5), 3);
  EXPECT_EQ(ir::ceil_log2_u64(std::uint64_t{1} << 63), 63);
  EXPECT_EQ(ir::ceil_log2_u64((std::uint64_t{1} << 63) + 1), 64);
  EXPECT_EQ(ir::ceil_log2_u64(~std::uint64_t{0}), 64);
}

TEST(WidthDomain, EvalSubstitutesParametersAndSaturates) {
  using ir::Param;
  using ir::ParamEnv;
  using ir::WidthExpr;
  const ParamEnv env{.n = 3, .k = 8, .delta = 2, .t = 1, .b = 5};
  const WidthExpr w = WidthExpr::add(
      WidthExpr::ceil_log2(WidthExpr::param(Param::K)),
      WidthExpr::param(Param::Delta));
  EXPECT_EQ(w.eval(env), 5);  // ⌈log₂ 8⌉ + 2
  EXPECT_EQ(WidthExpr::max(WidthExpr::param(Param::N),
                           WidthExpr::param(Param::B))
                .eval(env),
            5);
  EXPECT_EQ(WidthExpr::mul(WidthExpr::param(Param::T),
                           WidthExpr::constant(7))
                .eval(env),
            7);
  // ceil_log2 clamps non-positive subterms to 0 rather than misbehaving.
  EXPECT_EQ(WidthExpr::ceil_log2(WidthExpr::constant(-5)).eval(env), 0);
  EXPECT_EQ(WidthExpr::ceil_log2(WidthExpr::constant(0)).eval(env), 0);
  EXPECT_EQ(WidthExpr::ceil_log2(WidthExpr::constant(1)).eval(env), 0);
  // Saturating arithmetic: overflow clamps instead of wrapping.
  const long big = std::numeric_limits<long>::max();
  EXPECT_EQ(WidthExpr::add(WidthExpr::constant(big), WidthExpr::constant(big))
                .eval(env),
            big);
  EXPECT_EQ(WidthExpr::mul(WidthExpr::constant(big), WidthExpr::constant(2))
                .eval(env),
            big);
}

TEST(WidthDomain, RenderFormsAndUndefinedGuards) {
  using ir::Param;
  using ir::WidthExpr;
  EXPECT_EQ(WidthExpr::constant(4).render(), "4");
  EXPECT_EQ(WidthExpr::param(Param::Delta).render(), "delta");
  EXPECT_EQ(WidthExpr::add(WidthExpr::ceil_log2(WidthExpr::param(Param::K)),
                           WidthExpr::param(Param::Delta))
                .render(),
            "ceil_log2(k) + delta");
  // Additive subterms parenthesize inside a product; max is a call form.
  EXPECT_EQ(WidthExpr::mul(WidthExpr::add(WidthExpr::param(Param::N),
                                          WidthExpr::constant(1)),
                           WidthExpr::param(Param::T))
                .render(),
            "(n + 1) * t");
  EXPECT_EQ(WidthExpr::max(WidthExpr::param(Param::N),
                           WidthExpr::constant(2))
                .render(),
            "max(n, 2)");
  const WidthExpr undefined;
  EXPECT_FALSE(undefined.defined());
  EXPECT_EQ(undefined.render(), "");
  EXPECT_THROW((void)undefined.eval(ir::ParamEnv{}), UsageError);
  EXPECT_THROW((void)WidthExpr::add(undefined, WidthExpr::constant(1)),
               UsageError);
  EXPECT_THROW((void)WidthExpr::ceil_log2(undefined), UsageError);
}

TEST(WidthDomain, StructuralEquality) {
  using ir::Param;
  using ir::WidthExpr;
  const auto expr = [] {
    return WidthExpr::add(WidthExpr::ceil_log2(WidthExpr::param(Param::K)),
                          WidthExpr::param(Param::Delta));
  };
  EXPECT_TRUE(expr() == expr());
  EXPECT_FALSE(expr() == WidthExpr::param(Param::Delta));
  EXPECT_FALSE(WidthExpr::param(Param::N) == WidthExpr::param(Param::T));
  EXPECT_FALSE(WidthExpr::constant(1) == WidthExpr::param(Param::N));
  EXPECT_TRUE(WidthExpr{} == WidthExpr{});
  EXPECT_FALSE(WidthExpr{} == WidthExpr::constant(0));
}

TEST(ValueDomain, U64BoundaryJoinsAndWidths) {
  const std::uint64_t top = ~std::uint64_t{0};
  EXPECT_EQ(ValueExpr::constant(top).max_bits(), 64);
  EXPECT_EQ(ValueExpr::range(0, top).max_bits(), 64);
  EXPECT_EQ(ValueExpr::bits(63).max_bits(), 63);
  EXPECT_EQ(ValueExpr::bits(63).hi, (std::uint64_t{1} << 63) - 1);
  // Joins at the extremes stay exact — no wraparound, no widening.
  EXPECT_EQ(ValueExpr::constant(0).join(ValueExpr::constant(top)),
            ValueExpr::range(0, top));
  EXPECT_EQ(ValueExpr::range(top - 1, top).join(ValueExpr::constant(0)),
            ValueExpr::range(0, top));
  EXPECT_EQ(ValueExpr::any().join(ValueExpr::constant(top)), ValueExpr::any());
}

TEST(ValueDomain, SymbolicAndRelationalFormsMustBeResolved) {
  using ir::Param;
  using ir::WidthExpr;
  const ValueExpr s =
      ValueExpr::sym(WidthExpr::ceil_log2(WidthExpr::param(Param::K)));
  EXPECT_TRUE(s.symbolic());
  EXPECT_FALSE(s.relational());
  const ValueExpr r = ValueExpr::rel(0, 1);
  EXPECT_TRUE(r.relational());
  EXPECT_FALSE(r.symbolic());
  // Unresolved forms refuse interval operations: the interpreter must
  // resolve them against the ParamEnv / register table first.
  EXPECT_THROW((void)s.max_bits(), UsageError);
  EXPECT_THROW((void)r.max_bits(), UsageError);
  EXPECT_THROW((void)s.join(ValueExpr::constant(0)), UsageError);
  EXPECT_THROW((void)ValueExpr::constant(0).join(r), UsageError);
  EXPECT_THROW((void)ValueExpr::sym(WidthExpr{}), UsageError);
  EXPECT_THROW((void)ValueExpr::rel(-1, 0), UsageError);
  EXPECT_THROW((void)ValueExpr::rel(0, -1), UsageError);
}

TEST(Summarize, SymbolicWritesResolveAgainstTheParamEnv) {
  using ir::Param;
  using ir::WidthExpr;
  const auto make = [](long k) {
    ir::ProtocolIR p;
    p.registers.push_back(ir::RegisterDecl{"R", 0, 4, false, false});
    p.params.k = k;
    ir::ProcessIR p0;
    p0.pid = 0;
    p0.body.push_back(ir::write(
        0, ValueExpr::sym(WidthExpr::ceil_log2(WidthExpr::param(Param::K)))));
    p.processes.push_back(std::move(p0));
    return p;
  };
  // k = 8 → a 3-bit value set; the symbolic form is kept alongside.
  const auto s8 = ir::summarize_full(make(8));
  EXPECT_EQ(s8.registers[0].values, ValueExpr::bits(3));
  EXPECT_EQ(s8.registers[0].sym.render(), "ceil_log2(k)");
  // k = 1 → width 0 resolves to the single value 0.
  const auto s1 = ir::summarize_full(make(1));
  EXPECT_EQ(s1.registers[0].values, ValueExpr::constant(0));
  // A width of ≥ 64 bits resolves to the unbounded set.
  ir::ProtocolIR wide = make(8);
  wide.params.b = 64;
  wide.processes[0].body[0] =
      ir::write(0, ValueExpr::sym(WidthExpr::param(Param::B)));
  EXPECT_EQ(ir::summarize_full(wide).registers[0].values, ValueExpr::any());
}

TEST(Summarize, RelationalWritesResolveAgainstDeclaredWidths) {
  ir::ProtocolIR p;
  p.registers.push_back(ir::RegisterDecl{"A", 0, 2, false, false});
  p.registers.push_back(ir::RegisterDecl{"B", 1, 4, false, false});
  p.registers.push_back(ir::RegisterDecl{"U", 0, ir::kUnboundedWidth, false,
                                         false});
  p.registers.push_back(ir::RegisterDecl{"C", 1, 5, false, false});
  ir::ProcessIR p0;
  p0.pid = 0;
  ir::ProcessIR p1;
  p1.pid = 1;
  // B ≤ width(A) + 1 = 3 bits; C relates to the unbounded U, so its set
  // cannot be bounded either.
  p1.body.push_back(ir::write(1, ValueExpr::rel(0, 1)));
  p1.body.push_back(ir::write(3, ValueExpr::rel(2, 0)));
  p.processes.push_back(std::move(p0));
  p.processes.push_back(std::move(p1));
  const auto sums = ir::summarize_full(p);
  EXPECT_EQ(sums.registers[1].values, ValueExpr::bits(3));
  EXPECT_EQ(sums.registers[3].values, ValueExpr::any());
}

/// Two processes over three registers, exercising loops, branches, and
/// write-snapshots; the expected summaries are computable by hand.
ir::ProtocolIR sample_ir() {
  namespace air = ir;
  air::ProtocolIR p;
  p.registers.push_back(air::RegisterDecl{"A", 0, 2, false, false});
  p.registers.push_back(air::RegisterDecl{"B", 1, 3, false, false});
  p.registers.push_back(air::RegisterDecl{"C", -1, 4, false, false});
  air::ProcessIR p0;
  p0.pid = 0;
  p0.body.push_back(air::loop(Count::between(1, 3),
                              {air::write(0, ValueExpr::range(0, 1)),
                               air::read(1)}));
  p0.body.push_back(air::maybe({air::write(2, ValueExpr::constant(9))}));
  air::ProcessIR p1;
  p1.pid = 1;
  p1.body.push_back(
      air::write_snapshot(1, ValueExpr::constant(4), {0, 1}));
  p.processes.push_back(std::move(p0));
  p.processes.push_back(std::move(p1));
  return p;
}

TEST(Summarize, DerivesCountsValuesAndWriters) {
  const auto sums = ir::summarize(sample_ir());
  ASSERT_EQ(sums.size(), 3u);

  // A: written once per loop iteration by p0, read once by p1's snapshot.
  EXPECT_EQ(sums[0].writes, Count::between(1, 3));
  EXPECT_EQ(sums[0].reads, Count::exactly(1));
  EXPECT_EQ(sums[0].values, ValueExpr::range(0, 1));
  EXPECT_EQ(sums[0].writers, (std::vector<int>{0}));

  // B: read [1,3] times by p0's loop plus once by p1's own snapshot;
  // written once by the write-snapshot.
  EXPECT_EQ(sums[1].writes, Count::exactly(1));
  EXPECT_EQ(sums[1].reads, Count::between(2, 4));
  EXPECT_EQ(sums[1].values, ValueExpr::constant(4));
  EXPECT_EQ(sums[1].writers, (std::vector<int>{1}));

  // C: the maybe() branch writes it 0 or 1 times, but its value set still
  // includes the branch's constant; nobody reads it.
  EXPECT_EQ(sums[2].writes, Count::between(0, 1));
  EXPECT_EQ(sums[2].reads, Count::exactly(0));
  EXPECT_TRUE(sums[2].written);
  EXPECT_EQ(sums[2].values, ValueExpr::constant(9));
}

TEST(Summarize, DerivesPerProcessStepCounts) {
  // The paper counts one atomic step per access; the immediate snapshot is
  // a single step. p0: 2 steps per loop iteration ([1,3] trips) plus a
  // [0,1] branch step; p1: one write-snapshot.
  const ir::ProtocolSummary full = ir::summarize_full(sample_ir());
  ASSERT_EQ(full.steps.size(), 2u);
  EXPECT_EQ(full.steps[0], Count::between(2, 7));
  EXPECT_EQ(full.steps[1], Count::exactly(1));
}

TEST(Summarize, RejectsOutOfTableRegisters) {
  ir::ProtocolIR p;
  p.registers.push_back(ir::RegisterDecl{"A", 0, 1, false, false});
  ir::ProcessIR p0;
  p0.pid = 0;
  p0.body.push_back(ir::read(1));
  p.processes.push_back(std::move(p0));
  EXPECT_THROW((void)ir::summarize(p), UsageError);
}

TEST(Summarize, RejectsMalformedLoopBounds) {
  EXPECT_THROW((void)ir::loop(Count::between(3, 1), {}), UsageError);
  EXPECT_THROW((void)ir::loop(Count::between(-1, 2), {}), UsageError);
}

TEST(StaticChecker, Alg1IsCleanWithZeroExecutions) {
  const ProtocolSpec* spec = find_protocol("alg1");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport rep = analyze_static(*spec);
  EXPECT_EQ(rep.mode, LintMode::Static);
  EXPECT_EQ(rep.executions, 0);
  EXPECT_EQ(rep.errors(), 0);
  EXPECT_LE(rep.max_bounded_bits_used, spec->claim.max_register_bits);
  EXPECT_FALSE(rep.registers.empty());
}

TEST(StaticChecker, NeverInvokesTheFactory) {
  // The whole point of the static tier: a protocol is auditable from its IR
  // alone. A spec whose factory throws must still analyze cleanly.
  ProtocolSpec spec;
  spec.name = "ir-only";
  spec.claim = {1, std::nullopt, "test"};
  spec.factory = []() -> std::unique_ptr<sim::Sim> {
    throw std::logic_error("factory must not run under --mode static");
  };
  spec.describe = [] {
    ir::ProtocolIR p;
    p.registers.push_back(ir::RegisterDecl{"R", 0, 1, false, false});
    ir::ProcessIR p0;
    p0.pid = 0;
    p0.body.push_back(ir::write(0, ValueExpr::range(0, 1)));
    p0.body.push_back(ir::read(0));
    p.processes.push_back(std::move(p0));
    return p;
  };
  const ProtocolReport rep = analyze_static(spec);
  EXPECT_EQ(rep.errors(), 0);
  EXPECT_EQ(rep.executions, 0);
}

TEST(StaticChecker, MissingDescribeIsAnError) {
  ProtocolSpec spec;
  spec.name = "no-ir";
  spec.claim = {1, std::nullopt, "test"};
  const ProtocolReport rep = analyze_static(spec);
  ASSERT_EQ(rep.diagnostics.size(), 1u);
  EXPECT_EQ(rep.diagnostics[0].rule, "ir-missing");
  EXPECT_EQ(rep.errors(), 1);
}

TEST(StaticChecker, MisdeclaredDemoTripsEveryStaticRule) {
  const ProtocolSpec* spec = find_protocol("demo-misdeclared");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport rep = analyze_static(*spec);
  EXPECT_GT(rep.errors(), 0);
  std::set<std::string> rules;
  for (const Diagnostic& d : rep.diagnostics) rules.insert(d.rule);
  for (const char* rule :
       {"static-width", "static-write-once", "static-ownership",
        "static-bottom", "static-dead-register"}) {
    EXPECT_TRUE(rules.contains(rule)) << "missing rule " << rule;
  }
  // The SWMR finding names the offending process, not the owner.
  for (const Diagnostic& d : rep.diagnostics) {
    if (d.rule == "static-ownership") {
      EXPECT_EQ(d.reg_name, "demo.peer");
      EXPECT_EQ(d.pid, 0);
    }
  }
}

TEST(Summarize, DerivesChannelTrafficRoundsAndOffTopologySends) {
  ir::ProtocolIR p;
  p.channels.push_back(ir::ChannelDecl{0, 1, 2});
  p.channels.push_back(ir::ChannelDecl{1, 0, 2});
  p.max_rounds = 1;
  ir::ProcessIR p0;
  p0.pid = 0;
  p0.body.push_back(ir::round({ir::send(1, ValueExpr::constant(3)),
                               ir::send(0, ValueExpr::constant(1))}));
  ir::ProcessIR p1;
  p1.pid = 1;
  p1.body.push_back(ir::round({ir::recv(0), ir::send(0, ValueExpr::any())}));
  p.processes.push_back(std::move(p0));
  p.processes.push_back(std::move(p1));
  const ir::ProtocolSummary full = ir::summarize_full(p);
  ASSERT_EQ(full.channels.size(), 2u);
  EXPECT_TRUE(full.channels[0].used);
  EXPECT_EQ(full.channels[0].sends, Count::exactly(1));
  EXPECT_EQ(full.channels[0].recvs, Count::exactly(1));
  EXPECT_EQ(full.channels[0].payloads, ValueExpr::constant(3));
  EXPECT_EQ(full.channels[1].payloads, ValueExpr::any());
  // p0's self-send has no declared link: recorded as an off-topology pair.
  EXPECT_EQ(full.off_topology,
            (std::vector<std::pair<int, int>>{{0, 0}}));
  ASSERT_EQ(full.rounds.size(), 2u);
  EXPECT_EQ(full.rounds[0], Count::exactly(1));
  EXPECT_EQ(full.rounds[1], Count::exactly(1));
}

/// A register-free message protocol whose IR violates all three message
/// rules at once: an over-width payload on a declared 2-bit link, a send
/// outside the declared topology, and an unbounded round count against a
/// declared budget of 1.
ProtocolSpec message_violator_spec() {
  ProtocolSpec spec;
  spec.name = "msg-violator";
  spec.claim = {0, std::nullopt, "test"};
  spec.describe = [] {
    ir::ProtocolIR p;
    p.channels.push_back(ir::ChannelDecl{0, 1, 2});
    p.max_rounds = 1;
    ir::ProcessIR p0;
    p0.pid = 0;
    p0.body.push_back(ir::loop(
        Count::between(0, kMany),
        {ir::round({ir::send(1, ValueExpr::range(0, 15)),
                    ir::send(0, ValueExpr::constant(0))})}));
    ir::ProcessIR p1;
    p1.pid = 1;
    p1.body.push_back(ir::recv(0));
    p.processes.push_back(std::move(p0));
    p.processes.push_back(std::move(p1));
    return p;
  };
  return spec;
}

TEST(StaticChecker, MessageRulesFlagWidthTopologyAndRounds) {
  const ProtocolReport rep = analyze_static(message_violator_spec());
  std::set<std::string> rules;
  for (const Diagnostic& d : rep.diagnostics) rules.insert(d.rule);
  EXPECT_EQ(rules, (std::set<std::string>{"static-channel-width",
                                          "static-topology",
                                          "static-round-bound"}));
  for (const Diagnostic& d : rep.diagnostics) {
    EXPECT_EQ(d.pid, 0) << d.rule;  // every finding blames the sender
    EXPECT_EQ(d.reg, -1) << d.rule;
    EXPECT_EQ(d.severity, Severity::Error) << d.rule;
  }
}

TEST(StaticChecker, EmptyChannelTableLeavesTopologyUnconstrained) {
  // Shared-memory protocols declare no channels; their sends (there are
  // none) and topology are out of scope, so the register-only protocols
  // must not suddenly trip message rules.
  ProtocolSpec spec = message_violator_spec();
  auto base = spec.describe;
  spec.describe = [base] {
    ir::ProtocolIR p = base();
    p.channels.clear();
    p.max_rounds = ir::kMany;
    return p;
  };
  EXPECT_EQ(analyze_static(spec).errors(), 0);
}

TEST(StaticChecker, SymbolicClaimMustMatchTheTabulatedConstant) {
  ProtocolSpec spec;
  spec.name = "sym-claim";
  spec.claim = {3, std::nullopt, "test"};
  spec.claim.symbolic_bits = ir::WidthExpr::ceil_log2(
      ir::WidthExpr::param(ir::Param::K));
  spec.params.k = 8;  // ⌈log₂ 8⌉ = 3 — consistent
  spec.describe = [] {
    ir::ProtocolIR p;
    p.registers.push_back(ir::RegisterDecl{"R", 0, 3, false, false});
    ir::ProcessIR p0;
    p0.pid = 0;
    p0.body.push_back(ir::write(0, ValueExpr::range(0, 7)));
    p0.body.push_back(ir::read(0));
    p.processes.push_back(std::move(p0));
    return p;
  };
  EXPECT_EQ(analyze_static(spec).errors(), 0);
  // Re-instantiate with k = 4: the symbolic claim now evaluates to 2, the
  // tabulated 3 no longer matches, and the 3-bit register is over budget.
  spec.params.k = 4;
  const ProtocolReport rep = analyze_static(spec);
  EXPECT_GT(rep.errors(), 0);
  bool found_consistency = false;
  for (const Diagnostic& d : rep.diagnostics) {
    if (d.message.find("claims table states") != std::string::npos) {
      found_consistency = true;
      EXPECT_EQ(d.rule, "static-width");
      EXPECT_EQ(d.pid, -1);
      EXPECT_EQ(d.reg, -1);
    }
  }
  EXPECT_TRUE(found_consistency);
}

TEST(StaticChecker, LoopShapeCanaryFiresOnNativeDataDependentLoop) {
  // demo-loop-shape sizes a native for-loop from a read result, so its
  // second reflection (under perturbed reads) emits a different IR.
  const ProtocolSpec* spec = find_protocol("demo-loop-shape");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport rep = analyze_static(*spec);
  int loop_shape = 0;
  for (const Diagnostic& d : rep.diagnostics) {
    if (d.rule == "loop-shape") {
      loop_shape += 1;
      EXPECT_EQ(d.severity, Severity::Error);
      EXPECT_NE(d.message.find("p0"), std::string::npos) << d.message;
    }
  }
  EXPECT_EQ(loop_shape, 1);
}

TEST(StaticChecker, LoopShapeStaysQuietOnEveryRealProtocol) {
  // Data-dependent structure in the real protocols goes through the
  // combinators, so re-reflection under perturbed reads must be a no-op.
  // This sweep includes alg2 and alg5-snapshot, whose bodies *throw* under
  // perturbation (internal invariants reject the corrupted data) — a throw
  // yields no verdict, not a finding.
  for (const ProtocolSpec& spec : builtin_protocols()) {
    if (spec.demo) continue;
    const ProtocolReport rep = analyze_static(spec);
    for (const Diagnostic& d : rep.diagnostics) {
      EXPECT_NE(d.rule, "loop-shape") << spec.name << ": " << d.message;
    }
  }
}

TEST(StaticChecker, EveryBuiltinDescribeMatchesItsFactory) {
  // The IR's register table must mirror the factory's Sim declaration for
  // declaration: this is the static half of what `--mode both` enforces.
  for (const ProtocolSpec& spec : builtin_protocols()) {
    ASSERT_TRUE(static_cast<bool>(spec.describe)) << spec.name;
    const ir::ProtocolIR p = spec.describe();
    const auto sim = spec.factory();
    ASSERT_EQ(static_cast<int>(p.registers.size()), sim->num_registers())
        << spec.name;
    for (std::size_t r = 0; r < p.registers.size(); ++r) {
      const ir::RegisterDecl& decl = p.registers[r];
      const sim::Register& reg = sim->register_info(static_cast<int>(r));
      EXPECT_EQ(decl.name, reg.name) << spec.name << " register " << r;
      EXPECT_EQ(decl.writer, reg.writer) << spec.name << ' ' << reg.name;
      EXPECT_EQ(decl.width_bits, reg.width_bits)
          << spec.name << ' ' << reg.name;
      EXPECT_EQ(decl.write_once, reg.write_once)
          << spec.name << ' ' << reg.name;
      EXPECT_EQ(decl.allows_bottom, reg.allows_bottom)
          << spec.name << ' ' << reg.name;
    }
    // And the IR itself must be well-formed and within the claim.
    if (!spec.demo) {
      const ProtocolReport rep = analyze_static(spec);
      EXPECT_EQ(rep.errors(), 0) << spec.name;
    }
  }
}

TEST(CrossValidate, AgreesOnCleanAndMisdeclaredProtocols) {
  // Both tiers run for real; any disagreement between them is a bug in one
  // of the analyzers (each is the other's oracle).
  for (const char* name : {"alg1", "fast-agreement", "demo-misdeclared",
                           "sec4-quantized", "ring-stack",
                           "demo-misdeclared-symbolic", "demo-loop-shape"}) {
    const ProtocolSpec* spec = find_protocol(name);
    ASSERT_NE(spec, nullptr) << name;
    const ProtocolReport stat = analyze_static(*spec);
    const ProtocolReport dyn = analyze_protocol(*spec);
    const std::vector<Diagnostic> dis = cross_validate(*spec, stat, dyn);
    for (const Diagnostic& d : dis) {
      ADD_FAILURE() << name << ": " << d.message;
    }
  }
}

TEST(CrossValidate, FlagsRegisterTableMismatch) {
  const ProtocolSpec* spec = find_protocol("alg1");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport stat = analyze_static(*spec);
  ProtocolReport dyn = analyze_protocol(*spec);
  dyn.registers.pop_back();
  const auto dis = cross_validate(*spec, stat, dyn);
  ASSERT_EQ(dis.size(), 1u);
  EXPECT_EQ(dis[0].rule, "static-dynamic-disagreement");
  EXPECT_NE(dis[0].message.find("registers"), std::string::npos);
}

TEST(CrossValidate, FlagsDynamicExceedingStaticBounds) {
  const ProtocolSpec* spec = find_protocol("alg1");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport stat = analyze_static(*spec);
  ProtocolReport dyn = analyze_protocol(*spec);
  // Forge an observation the IR cannot explain: more writes, wider values,
  // and a read of a register no IR path reads.
  ASSERT_FALSE(dyn.registers.empty());
  dyn.registers[0].max_writes += 100;
  dyn.registers[0].max_bits = 60;
  const auto dis = cross_validate(*spec, stat, dyn);
  EXPECT_EQ(dis.size(), 2u);
  for (const Diagnostic& d : dis) {
    EXPECT_EQ(d.rule, "static-dynamic-disagreement");
    EXPECT_EQ(d.reg, 0);
  }
}

TEST(CrossValidate, FlagsDynamicErrorWithoutStaticCounterpart) {
  const ProtocolSpec* spec = find_protocol("alg1");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport stat = analyze_static(*spec);
  ProtocolReport dyn = analyze_protocol(*spec);
  Diagnostic forged;
  forged.rule = "write-once";
  forged.protocol = spec->name;
  forged.pid = 0;
  forged.reg = 0;
  forged.message = "forged dynamic violation";
  dyn.diagnostics.push_back(forged);
  const auto dis = cross_validate(*spec, stat, dyn);
  ASSERT_EQ(dis.size(), 1u);
  EXPECT_NE(dis[0].message.find("static-write-once"), std::string::npos);
}

TEST(CrossValidate, SkipsWhenIrIsMissing) {
  ProtocolSpec spec;
  spec.name = "no-ir";
  spec.claim = {1, std::nullopt, "test"};
  const ProtocolReport stat = analyze_static(spec);
  ProtocolReport dyn;  // wildly different — must not matter
  dyn.name = "no-ir";
  EXPECT_TRUE(cross_validate(spec, stat, dyn).empty());
}

}  // namespace
}  // namespace bsr::analysis
