// The builder transition harness: the proto builder's reflect mode replaced
// every hand-written `describe()` IR mirror, and these tests pin the
// reflected output. The expected IRs below are transcribed from the last
// hand-written mirrors (before their deletion), so a behavioural drift in
// the reflection machinery — or in a protocol body — surfaces as a named
// structural diff instead of a silent audit change.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/claims.h"
#include "analysis/static/ir.h"
#include "core/alg1.h"
#include "proto/builder.h"
#include "sim/explore.h"
#include "util/errors.h"

namespace bsr {
namespace {

namespace air = analysis::ir;

// ------------------------------------------------------------ determinism --

// Reflection is a pure function of the spec: two runs of every registered
// describe hook must produce structurally identical IR.
TEST(Builder, ReflectionIsDeterministic) {
  for (const analysis::ProtocolSpec& s : analysis::builtin_protocols()) {
    ASSERT_TRUE(s.describe) << s.name << " has no describe hook";
    const air::ProtocolIR a = s.describe();
    const air::ProtocolIR b = s.describe();
    EXPECT_TRUE(a == b) << s.name << ": " << air::diff(a, b);
    EXPECT_EQ("", air::diff(a, b)) << s.name;
  }
}

// ------------------------------------------------- reflected == hand-written --

/// The Algorithm 1 IR as it was hand-maintained before the builder: the
/// input write, the [1, k] alternating-bit loop, and the input exchange.
air::ProtocolIR expected_alg1_ir(long k) {
  air::ProtocolIR p;
  p.registers.push_back(air::RegisterDecl{"alg1.I1", 0, 2, true, true});
  p.registers.push_back(air::RegisterDecl{"alg1.I2", 1, 2, true, true});
  p.registers.push_back(air::RegisterDecl{"alg1.R1", 0, 1, false, false});
  p.registers.push_back(air::RegisterDecl{"alg1.R2", 1, 1, false, false});
  for (int me = 0; me < 2; ++me) {
    const int other = 1 - me;
    air::ProcessIR proc;
    proc.pid = me;
    proc.body.push_back(air::write(me, air::ValueExpr::range(0, 1)));
    proc.body.push_back(air::loop(
        air::Count::between(1, k),
        {air::write(2 + me, air::ValueExpr::range(0, 1)), air::read(2 + other)}));
    proc.body.push_back(air::read(me));
    proc.body.push_back(air::read(other));
    p.processes.push_back(std::move(proc));
  }
  return p;
}

TEST(Builder, Alg1ReflectsTheHandWrittenIR) {
  const air::ProtocolIR reflected = core::describe_alg1(/*k=*/3);
  const air::ProtocolIR expected = expected_alg1_ir(3);
  EXPECT_TRUE(reflected == expected) << air::diff(expected, reflected);
}

/// The lint canary's IR, verbatim from the deleted hand-written mirror —
/// every deliberate violation must survive reflection unchanged.
air::ProtocolIR expected_misdeclared_ir() {
  air::ProtocolIR p;
  p.registers.push_back(air::RegisterDecl{"demo.wide", 0, 8, false, false});
  p.registers.push_back(air::RegisterDecl{"demo.once", 0, 2, true, true});
  p.registers.push_back(air::RegisterDecl{"demo.peer", 1, 2, false, false});
  p.registers.push_back(air::RegisterDecl{"demo.bottom", 1, 2, false, true});
  p.registers.push_back(air::RegisterDecl{"demo.dead", 1, 1, false, false});
  air::ProcessIR p0;
  p0.pid = 0;
  p0.body.push_back(air::write(0, air::ValueExpr::constant(21)));
  p0.body.push_back(air::write(1, air::ValueExpr::constant(1)));
  p0.body.push_back(air::write(1, air::ValueExpr::constant(2)));
  p0.body.push_back(air::write(2, air::ValueExpr::constant(1)));
  air::ProcessIR p1;
  p1.pid = 1;
  p1.body.push_back(air::read(0));
  p1.body.push_back(air::write(3, air::ValueExpr::constant(3)));
  p1.body.push_back(air::write(4, air::ValueExpr::constant(5)));
  p1.body.push_back(air::read(1));
  p1.body.push_back(air::read(3));
  p.processes.push_back(std::move(p0));
  p.processes.push_back(std::move(p1));
  return p;
}

TEST(Builder, MisdeclaredCanaryReflectsTheHandWrittenIR) {
  const analysis::ProtocolSpec* s = analysis::find_protocol("demo-misdeclared");
  ASSERT_NE(nullptr, s);
  const air::ProtocolIR reflected = s->describe();
  const air::ProtocolIR expected = expected_misdeclared_ir();
  EXPECT_TRUE(reflected == expected) << air::diff(expected, reflected);
}

/// The symbolic canary's IR, verbatim from the deleted hand-written mirror:
/// relational (difference-bound) write annotations.
air::ProtocolIR expected_misdeclared_symbolic_ir() {
  air::ProtocolIR p;
  p.registers.push_back(air::RegisterDecl{"sym.R0", 0, 3, false, false});
  p.registers.push_back(air::RegisterDecl{"sym.R1", 1, 3, false, false});
  for (int me = 0; me < 2; ++me) {
    const int other = 1 - me;
    air::ProcessIR proc;
    proc.pid = me;
    proc.body.push_back(air::write(me, air::ValueExpr::rel(other, 0)));
    proc.body.push_back(air::read(other));
    p.processes.push_back(std::move(proc));
  }
  return p;
}

TEST(Builder, SymbolicCanaryReflectsTheHandWrittenIR) {
  const analysis::ProtocolSpec* s =
      analysis::find_protocol("demo-misdeclared-symbolic");
  ASSERT_NE(nullptr, s);
  const air::ProtocolIR reflected = s->describe();
  const air::ProtocolIR expected = expected_misdeclared_symbolic_ir();
  EXPECT_TRUE(reflected == expected) << air::diff(expected, reflected);
}

// ----------------------------------------------------------- diff / render --

TEST(Builder, DiffIsEmptyOnEqualIRs) {
  const air::ProtocolIR a = expected_alg1_ir(3);
  const air::ProtocolIR b = expected_alg1_ir(3);
  EXPECT_TRUE(a == b);
  EXPECT_EQ("", air::diff(a, b));
}

TEST(Builder, DiffNamesTheMutatedRegister) {
  const air::ProtocolIR a = expected_alg1_ir(3);
  air::ProtocolIR b = a;
  b.registers[2].width_bits = 2;
  EXPECT_FALSE(a == b);
  const std::string d = air::diff(a, b);
  EXPECT_NE(std::string::npos, d.find("alg1.R1")) << d;
}

TEST(Builder, DiffNamesTheMutatedInstructionPath) {
  const air::ProtocolIR a = expected_alg1_ir(3);

  // Mutate an instruction nested inside p1's loop body.
  air::ProtocolIR b = a;
  b.processes[1].body[1].body[0].value = air::ValueExpr::range(0, 3);
  EXPECT_FALSE(a == b);
  const std::string d = air::diff(a, b);
  EXPECT_NE(std::string::npos, d.find("process p1")) << d;
  EXPECT_NE(std::string::npos, d.find("body")) << d;

  // A trip-count change on the loop itself is also named.
  air::ProtocolIR c = a;
  c.processes[0].body[1].iters = air::Count::between(1, 7);
  EXPECT_NE("", air::diff(a, c));
}

TEST(Builder, RenderShowsLoopStructure) {
  const air::ProtocolIR p = expected_alg1_ir(3);
  const std::string text = air::render(p);
  EXPECT_NE(std::string::npos, text.find("process p0")) << text;
  EXPECT_NE(std::string::npos, text.find("loop")) << text;
  EXPECT_NE(std::string::npos, text.find("alg1.I1")) << text;
}

// --------------------------------------------------------- execute parity --

// The same build function drives both interpreters: reflecting a spec must
// not disturb a subsequent execution, and vice versa (the modes share no
// mutable state).
TEST(Builder, ReflectionLeavesExecutionUndisturbed) {
  const analysis::ProtocolSpec* s = analysis::find_protocol("alg1");
  ASSERT_NE(nullptr, s);
  const air::ProtocolIR before = s->describe();
  auto sim = s->factory();
  ASSERT_NE(nullptr, sim);
  const air::ProtocolIR after = s->describe();
  EXPECT_TRUE(before == after) << air::diff(before, after);
}

// ------------------------------------------------- execute-mode routing ----
// Proto::channel and Proto::max_rounds used to be reflect-only no-ops; they
// now route into the simulator, so the declared budgets bound execution.

/// `rounds` round entries per process against a declared budget of 1.
std::unique_ptr<sim::Sim> make_rounds_sim(int n, int rounds) {
  auto s = std::make_unique<sim::Sim>(n);
  proto::Proto pr(*s);
  pr.max_rounds(1);
  std::vector<int> regs;
  for (int i = 0; i < n; ++i) {
    regs.push_back(pr.add_register("R" + std::to_string(i), i,
                                   sim::kUnbounded, Value(0)));
  }
  for (int i = 0; i < n; ++i) {
    pr.spawn(i, [rounds, reg = regs[static_cast<std::size_t>(i)]](
                    proto::P p) -> sim::Proc {
      for (int r = 0; r < rounds; ++r) {
        co_await p.round([&p, reg, r]() -> sim::Task<void> {
          co_await p.write(reg, Value(static_cast<std::uint64_t>(r) + 1),
                           air::ValueExpr::any());
        });
      }
      co_return Value(0);
    });
  }
  return s;
}

TEST(Builder, DeclaredMaxRoundsBoundsExecution) {
  {
    // Within budget: one round each, no complaints in throw mode.
    auto sim = make_rounds_sim(1, 1);
    while (sim->enabled(0)) sim->step(0);
    EXPECT_TRUE(sim->terminated(0));
  }
  {
    // Beyond budget, throw mode: entering round 2 is a model error.
    auto sim = make_rounds_sim(1, 2);
    EXPECT_THROW(
        {
          while (sim->enabled(0)) sim->step(0);
        },
        ModelError);
  }
  {
    // Beyond budget, collect mode: one Round violation per process.
    auto sim = make_rounds_sim(1, 2);
    sim->set_violation_collecting(true);
    while (sim->enabled(0)) sim->step(0);
    ASSERT_EQ(sim->model_violations().size(), 1u);
    EXPECT_EQ(sim->model_violations()[0].kind, sim::ModelEvent::Kind::Round);
  }
}

TEST(Builder, RoundAccountingSurvivesExplorerRewinds) {
  // The incremental explorer rewinds past round entries. The per-handle
  // round counter is frame state: a kept frame keeps it, and a rebuilt one
  // recounts while the simulator suppresses note_round during the
  // fast-forward. A step that noted a round is never reused, so its Round
  // check runs again whenever the step is re-executed. Every leaf must
  // therefore report exactly one over-budget entry per process, the same
  // as a rewind-free replay exploration.
  const auto make = [] {
    auto s = make_rounds_sim(2, 2);
    s->set_violation_collecting(true);
    return s;
  };
  const sim::Explorer ex{sim::ExploreOptions{}};
  long leaves = 0;
  ex.explore(make, [&](sim::Sim& s, const std::vector<sim::Choice>&) {
    ++leaves;
    long round_violations = 0;
    for (const sim::ModelEvent& e : s.model_violations()) {
      if (e.kind == sim::ModelEvent::Kind::Round) ++round_violations;
    }
    EXPECT_EQ(round_violations, 2);
  });
  EXPECT_GT(leaves, 1);
}

TEST(Builder, ChannelDeclarationsEnforceTopologyInExecuteMode) {
  const auto make = [](sim::Pid dst) {
    auto s = std::make_unique<sim::Sim>(2);
    proto::Proto pr(*s);
    pr.channel(0, 1);  // the only declared link
    pr.spawn(0, [dst](proto::P p) -> sim::Proc {
      co_await p.send(dst, Value(1), air::ValueExpr::constant(1));
      co_return Value(0);
    });
    pr.spawn(1, [](proto::P) -> sim::Proc { co_return Value(0); });
    s->set_violation_collecting(true);
    return s;
  };
  {
    auto sim = make(1);  // declared link: clean
    while (sim->enabled(0)) sim->step(0);
    EXPECT_TRUE(sim->model_violations().empty());
  }
  {
    auto sim = make(0);  // self-send is off the declared topology
    while (sim->enabled(0)) sim->step(0);
    ASSERT_FALSE(sim->model_violations().empty());
    EXPECT_EQ(sim->model_violations()[0].kind,
              sim::ModelEvent::Kind::Topology);
  }
}

}  // namespace
}  // namespace bsr
