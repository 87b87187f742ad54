// Full-registry differential: schedule counting through the transposition
// table vs the ReplayExplorer oracle on EVERY terminating registry protocol.
// The fast smoke subset of the same properties lives in explore_tt_test.cpp;
// this sweep carries the `slow` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/claims.h"
#include "analysis/static/ir.h"
#include "analysis/static/steps.h"
#include "core/alg1.h"
#include "core/alg2.h"
#include "core/sec7.h"
#include "sim/explore.h"
#include "sim/sim.h"
#include "sim/tt.h"
#include "sim/zobrist.h"
#include "support/replay_explorer.h"
#include "tasks/approx.h"
#include "tasks/explicit_task.h"
#include "topo/bmz.h"
#include "util/value.h"

namespace bsr::sim {
namespace {

TEST(ExploreTTSlow, MatchesReplayOracleOnEveryTerminatingRegistryProtocol) {
  for (const analysis::ProtocolSpec& spec : analysis::builtin_protocols()) {
    if (spec.sample_runner) continue;  // non-terminating: sampled, never swept
    SCOPED_TRACE(spec.name);
    const auto make = [&spec] {
      auto sim = spec.factory();
      sim->set_violation_collecting(true);  // demos violate by design
      return sim;
    };

    // Ground truth: every schedule via rebuild-and-replay, with final
    // states collapsed by the from-scratch hash oracle.
    const Observed oracle = replay_oracle(make, spec.explore);

    // Counted search: the oracle's schedule count, one visit per distinct
    // final state, same finals, same violation findings.
    {
      auto tt = std::make_shared<TranspositionTable>(std::size_t{16} << 20);
      ExploreOptions opts = spec.explore;
      opts.tt = tt;
      opts.threads = 1;
      Observed pruned;
      pruned.count = Explorer(opts).explore(
          make, [&](Sim& sim, const std::vector<Choice>&) {
            pruned.record(sim, sim.state_hash());
          });
      ASSERT_EQ(tt->stats().drops, 0);
      EXPECT_EQ(pruned.count, oracle.count);
      EXPECT_EQ(pruned.visits, static_cast<long>(oracle.finals.size()));
      EXPECT_EQ(pruned.finals, oracle.finals);
      EXPECT_EQ(pruned.violations, oracle.violations);
    }
  }
}

// The schedule counts the benchmark's explore-bounded workload pins by
// plain enumeration: the counted search returns the same number, and its
// visits reach the same final states as the enumeration's.
TEST(ExploreTTSlow, CountsTheBenchmarksEnumeratedInstances) {
  const tasks::ApproxAgreement aa(2, 3);
  std::vector<Value> domain;
  for (std::uint64_t v = 0; v <= 3; ++v) domain.emplace_back(v);
  const topo::Bmz2Plan plan =
      topo::Bmz2(tasks::materialize(aa, domain)).plan();
  struct Case {
    const char* name;
    long schedules;
    ExploreOptions opts;
    Explorer::Factory make;
  };
  const auto alg1 = [](std::uint64_t k) {
    return [k] {
      auto sim = std::make_unique<Sim>(2);
      core::install_alg1(*sim, k, {0, 1});
      return sim;
    };
  };
  const std::vector<Case> cases = {
      {"alg1-k4", 73'738, ExploreOptions{.max_steps = 1000}, alg1(4)},
      {"alg1-k5", 295'178, ExploreOptions{.max_steps = 1000}, alg1(5)},
      {"alg2-aa23-crashes1", 542'382,
       ExploreOptions{.max_steps = 500, .max_crashes = 1},
       [&plan] {
         auto sim = std::make_unique<Sim>(2);
         core::install_alg2(*sim, plan, {Value(0), Value(1)});
         return sim;
       }}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ExploreOptions opts = c.opts;
    opts.threads = 1;
    Observed plain;
    plain.count = Explorer(opts).explore(
        [&c] {
          auto sim = c.make();
          sim->set_checkpointing(true);  // full_hash reads the result logs
          return sim;
        },
        [&](Sim& sim, const std::vector<Choice>&) {
          plain.record(sim, zobrist::full_hash(sim));
        });
    EXPECT_EQ(plain.count, c.schedules);

    auto tt = std::make_shared<TranspositionTable>(kSmallTableBytes);
    opts.tt = tt;
    Observed counted;
    counted.count = Explorer(opts).explore(
        c.make, [&](Sim& sim, const std::vector<Choice>&) {
          counted.record(sim, sim.state_hash());
        });
    ASSERT_EQ(tt->stats().drops, 0);
    EXPECT_EQ(counted.count, c.schedules);
    EXPECT_EQ(counted.visits, static_cast<long>(plain.finals.size()));
    EXPECT_EQ(counted.finals, plain.finals);
  }
}

// The step-complexity contract beyond the paper's figures: the registry
// pins alg1 at k = 2 and the full-information IC protocol at n = 2, k = 2
// (`bsr lint --mode=steps` cross-validates those instantiations on every
// run). This sweep builds each protocol at a larger instantiation and
// asserts the same invariant — the max atomic steps any process takes on
// any explored schedule stays ≤ the static symbolic bound evaluated there
// (the artificial OpKind::Start step excluded, as in the analyzer).
TEST(ExploreTTSlow, ObservedStepsStayUnderStaticBoundBeyondPaperFigures) {
  struct Case {
    const char* name;
    Explorer::Factory make;
    analysis::ir::ProtocolIR ir;
    analysis::ir::ParamEnv env;
  };
  const std::vector<Case> cases = {
      {"alg1-k6",
       [] {
         auto sim = std::make_unique<Sim>(2);
         core::install_alg1(*sim, /*k=*/6, {0, 1});
         return sim;
       },
       core::describe_alg1(/*k=*/6),
       analysis::ir::ParamEnv{2, 6, 1, 0, 1}},
      {"full-info-n3",
       [] {
         auto sim = std::make_unique<Sim>(3);
         core::install_full_info_ic(*sim, /*k=*/2,
                                    {Value(0), Value(1), Value(2)});
         return sim;
       },
       core::describe_full_info_ic(/*n=*/3, /*k=*/2),
       analysis::ir::ParamEnv{3, 2, 1, 0, 1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const analysis::ir::StepReport bounds = analysis::ir::step_bounds(c.ir);
    ASSERT_EQ(bounds.processes.size(), c.ir.processes.size());
    std::vector<long> budget;
    for (const analysis::ir::ProcessStepBound& b : bounds.processes) {
      ASSERT_TRUE(b.finite);
      budget.push_back(b.bound.eval(c.env));
    }

    ExploreOptions opts;
    opts.max_steps = 500;
    opts.tt = std::make_shared<TranspositionTable>(std::size_t{16} << 20);
    opts.threads = 1;
    std::vector<long> observed(budget.size(), 0);
    const long leaves = Explorer(opts).explore(
        c.make, [&](Sim& sim, const std::vector<Choice>&) {
          for (Pid pid = 0; pid < sim.n(); ++pid) {
            auto& cell = observed[static_cast<std::size_t>(pid)];
            cell = std::max(cell, std::max(0L, sim.steps(pid) - 1));
          }
        });
    EXPECT_GE(leaves, 1);
    for (std::size_t pid = 0; pid < budget.size(); ++pid) {
      EXPECT_LE(observed[pid], budget[pid]) << "pid " << pid;
      EXPECT_GT(observed[pid], 0) << "pid " << pid;
    }
  }
}

}  // namespace
}  // namespace bsr::sim
