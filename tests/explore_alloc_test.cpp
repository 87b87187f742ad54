// The explorer's per-node bookkeeping and the random scheduler's per-step
// bookkeeping stay off the heap.
//
// A search node should cost its Sim::step: the DFS keeps its frames, choice
// lists, sleep sets and POR footprints in buffers that outlive the node, so
// once the search has reached its deepest and widest nodes it allocates
// only for what the protocol itself builds (composite Values, rebuilt
// coroutine frames). A sampled step should cost its Sim::step too:
// run_random keeps its enabled, alive and Recv-sender lists across steps,
// and the register stack's pump keeps its links in vectors built once.
// This binary replaces the global operator new with a counting one
// (support/counting_new.h) and bounds the allocations of one serial
// exploration of the full-information protocol (Algorithm 3) with the
// transposition table and sleep-set POR, the configuration that exercises
// every reused buffer, and of the seeded runs `bsr lint` samples the §6
// register stack with. The explorer's own counters and the runs' step
// counts pin the work's size.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/sec6.h"
#include "core/sec7.h"
#include "sim/explore.h"
#include "sim/sched.h"
#include "sim/sim.h"
#include "sim/tt.h"
#include "support/counting_new.h"

namespace bsr::sim {
namespace {

TEST(ExploreAlloc, FullInformationSearchAllocatesLessThanOncePerFourNodes) {
  auto tt = std::make_shared<TranspositionTable>(std::size_t{1} << 22);
  ExploreOptions opts;
  opts.max_steps = 1000;
  opts.max_crashes = 1;
  opts.threads = 1;  // the serial engine, whatever BSR_EXPLORE_THREADS says
  opts.tt = tt;
  opts.por = true;
  const Explorer explorer(opts);
  const Explorer::Factory make = [] {
    auto sim = std::make_unique<Sim>(3);
    core::install_full_info_ic(*sim, 2, {Value(0), Value(1), Value(2)});
    return sim;
  };
  const Explorer::Visitor visit = [](Sim&, const std::vector<Choice>&) {};

  ExploreStats stats;
  long finals = 0;
  long allocations = 0;
  {
    const test::AllocationCount counted;
    finals = explorer.explore(make, visit, &stats);
    allocations = counted.count();
  }

  ASSERT_EQ(tt->stats().drops, 0) << "probe window overflowed; grow the table";
  EXPECT_EQ(finals, 3886);
  EXPECT_EQ(stats.leaves, 3886);
  EXPECT_EQ(stats.nodes, 24'333);
  EXPECT_EQ(stats.sleep_blocked, 2'448);
  // The bound is fixed at the node count this search had while it still
  // applied crashes whose every child choice was asleep: 67 006 nodes,
  // counted by a run that probed the table at every node and got no hits.
  // Putting such crashes to sleep unapplied cut the nodes to 24 333 but
  // none of the allocations, which are the protocol's own composite Values,
  // so the bound stays where it was rather than following the node count.
  constexpr long kBoundNodes = 67'006;
  EXPECT_LT(allocations * 4, kBoundNodes)
      << allocations << " allocations over " << stats.nodes << " nodes ("
      << finals << " finals)";
}

TEST(SampledAlloc, RegisterStackStepAllocatesLessThanOnce) {
  // sec6-stack's registry instance (n = 3, t = 1, inputs {0, 1, 1}) over
  // the three seeds `bsr lint` samples it with, each run until every
  // process decided. What is left is the protocol's own: per pump, the
  // `serve` body's `Task` frame, and the `when` body's frame when the wire
  // word changed (about 52 700 and 31 500 of the 90 008 allocations here:
  // one per pump and one per write); the rest are the messages the links
  // complete and the layers above pass on.
  long steps = 0;
  long allocations = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Sim sim(3);
    auto result = std::make_shared<core::Sec6Result>(3);
    core::install_register_stack(sim, core::Sec6Options{1, /*rounds=*/1},
                                 {0, 1, 1}, result);
    RandomRunOptions opts;
    opts.seed = seed;
    opts.done = core::Sec6Result::done_predicate(result);
    RunReport rep;
    {
      const test::AllocationCount counted;
      rep = run_random(sim, opts);
      allocations += counted.count();
    }
    ASSERT_TRUE(result->all_decided(sim)) << "seed " << seed << " did not decide";
    ASSERT_FALSE(rep.hit_step_limit) << "seed " << seed;
    steps += rep.steps;
  }
  // The draws decide the step count: a scheduler change that alters any
  // schedule moves it (tests/golden/lint_steps.json pins the same runs).
  EXPECT_EQ(steps, 136'802);
  EXPECT_LT(allocations, steps)
      << allocations << " allocations over " << steps << " steps";
}

}  // namespace
}  // namespace bsr::sim
