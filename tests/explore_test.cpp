#include "sim/explore.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "tasks/checker.h"

namespace bsr::sim {
namespace {

/// Write-then-read protocol for two processes (the canonical 4-step race).
std::unique_ptr<Sim> make_pair_sim() {
  auto sim = std::make_unique<Sim>(2);
  const int r0 = sim->add_register("R0", 0, kUnbounded, Value(0));
  const int r1 = sim->add_register("R1", 1, kUnbounded, Value(0));
  auto body = [r0, r1](Env& env) -> Proc {
    const int mine = env.pid() == 0 ? r0 : r1;
    const int theirs = env.pid() == 0 ? r1 : r0;
    co_await env.write(mine, Value(1));
    const OpResult got = co_await env.read(theirs);
    co_return got.value;
  };
  sim->spawn(0, body);
  sim->spawn(1, body);
  return sim;
}

TEST(Explorer, CountsAllInterleavings) {
  // Each process takes 3 steps (start, write, read): the number of
  // interleavings of two sequences of 3 steps is C(6,3) = 20.
  Explorer ex(ExploreOptions{});
  long count = ex.explore(make_pair_sim, [](Sim&, const std::vector<Choice>&) {});
  EXPECT_EQ(count, 20);
}

TEST(Explorer, FindsTheSoloOutcomeAmongOutcomes) {
  // Classic result: in every execution at least one process sees the other,
  // so the outcome (0, 0) is impossible, while (0,1), (1,0), (1,1) all occur.
  Explorer ex(ExploreOptions{});
  std::set<std::pair<std::uint64_t, std::uint64_t>> outcomes;
  ex.explore(make_pair_sim, [&](Sim& sim, const std::vector<Choice>&) {
    outcomes.insert({sim.decision(0).as_u64(), sim.decision(1).as_u64()});
  });
  EXPECT_EQ(outcomes.size(), 3u);
  EXPECT_FALSE(outcomes.contains({0u, 0u}));
  EXPECT_TRUE(outcomes.contains({1u, 0u}));
  EXPECT_TRUE(outcomes.contains({0u, 1u}));
  EXPECT_TRUE(outcomes.contains({1u, 1u}));
}

TEST(Explorer, CrashChoicesProduceCrashExecutions) {
  ExploreOptions opts;
  opts.max_crashes = 1;
  Explorer ex(opts);
  bool saw_crash_of_0 = false;
  bool saw_no_crash = false;
  long count = ex.explore(make_pair_sim, [&](Sim& sim,
                                             const std::vector<Choice>&) {
    const int crashed = (sim.crashed(0) ? 1 : 0) + (sim.crashed(1) ? 1 : 0);
    EXPECT_LE(crashed, 1);
    if (sim.crashed(0)) {
      saw_crash_of_0 = true;
      EXPECT_TRUE(sim.terminated(1));  // survivor still decides (wait-free)
    }
    if (crashed == 0) saw_no_crash = true;
  });
  EXPECT_GT(count, 20);
  EXPECT_TRUE(saw_crash_of_0);
  EXPECT_TRUE(saw_no_crash);
}

TEST(Explorer, ExploresRecvChannelChoices) {
  auto make = []() {
    auto sim = std::make_unique<Sim>(3);
    sim->spawn(0, [](Env& env) -> Proc {
      co_await env.send(2, Value(10));
      co_return Value(0);
    });
    sim->spawn(1, [](Env& env) -> Proc {
      co_await env.send(2, Value(20));
      co_return Value(0);
    });
    sim->spawn(2, [](Env& env) -> Proc {
      const OpResult m = co_await env.recv();
      co_return m.value;  // first message wins
    });
    return sim;
  };
  Explorer ex(ExploreOptions{});
  std::set<std::uint64_t> firsts;
  ex.explore(make, [&](Sim& sim, const std::vector<Choice>&) {
    firsts.insert(sim.decision(2).as_u64());
  });
  EXPECT_EQ(firsts, (std::set<std::uint64_t>{10u, 20u}));
}

TEST(Explorer, NonTerminatingProtocolHitsStepBound) {
  auto make = []() {
    auto sim = std::make_unique<Sim>(1);
    const int r = sim->add_register("R", 0, 1, Value(0));
    sim->spawn(0, [r](Env& env) -> Proc {
      for (;;) co_await env.write(r, Value(0));
    });
    return sim;
  };
  ExploreOptions opts;
  opts.max_steps = 50;
  Explorer ex(opts);
  EXPECT_THROW(
      ex.explore(make, [](Sim&, const std::vector<Choice>&) {}),
      UsageError);
}

TEST(Explorer, ScheduleReplayReproducesOutcome) {
  Explorer ex(ExploreOptions{});
  std::vector<std::vector<Choice>> schedules;
  std::vector<tasks::Config> outcomes;
  ex.explore(make_pair_sim, [&](Sim& sim, const std::vector<Choice>& sched) {
    schedules.push_back(sched);
    outcomes.push_back(tasks::decisions_of(sim));
  });
  ASSERT_FALSE(schedules.empty());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    auto sim = make_pair_sim();
    run_schedule(*sim, schedules[i]);
    EXPECT_EQ(tasks::decisions_of(*sim), outcomes[i]);
  }
}

}  // namespace
}  // namespace bsr::sim
