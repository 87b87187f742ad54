#include "sim/sched.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

namespace bsr::sim {
namespace {

/// A tiny racy protocol: each process writes its pid+1 then reads the other
/// register, deciding what it saw.
std::unique_ptr<Sim> make_pair_sim() {
  auto sim = std::make_unique<Sim>(2);
  const int r0 = sim->add_register("R0", 0, kUnbounded, Value(0));
  const int r1 = sim->add_register("R1", 1, kUnbounded, Value(0));
  auto body = [r0, r1](Env& env) -> Proc {
    const int mine = env.pid() == 0 ? r0 : r1;
    const int theirs = env.pid() == 0 ? r1 : r0;
    co_await env.write(mine, Value(static_cast<std::uint64_t>(env.pid()) + 1));
    const OpResult got = co_await env.read(theirs);
    co_return got.value;
  };
  sim->spawn(0, body);
  sim->spawn(1, body);
  return sim;
}

/// p0 serves forever; p1 takes one message and decides. Only an early-stop
/// predicate ends a run of it.
std::unique_ptr<Sim> make_chatty_sim() {
  auto sim = std::make_unique<Sim>(2);
  sim->spawn(0, [](Env& env) -> Proc {
    for (;;) co_await env.send(1, Value(1));
  });
  sim->spawn(1, [](Env& env) -> Proc {
    co_await env.recv();
    co_return Value(42);
  });
  return sim;
}

bool p1_decided(const Sim& s) { return s.terminated(1); }

TEST(RoundRobin, RunsToCompletion) {
  auto sim = make_pair_sim();
  const RunReport rep = run_round_robin(*sim);
  EXPECT_TRUE(rep.all_decided(2));
  EXPECT_FALSE(rep.hit_step_limit);
  // Round-robin interleaves writes before reads: both see each other.
  EXPECT_EQ(sim->decision(0).as_u64(), 2u);
  EXPECT_EQ(sim->decision(1).as_u64(), 1u);
}

TEST(RoundRobin, StepLimitIsReported) {
  Sim sim(2);
  sim.spawn(0, [](Env& env) -> Proc {
    // Ping-pong forever.
    for (;;) {
      co_await env.send(1, Value(0));
      co_await env.recv();
    }
  });
  sim.spawn(1, [](Env& env) -> Proc {
    for (;;) {
      const OpResult m = co_await env.recv();
      co_await env.send(0, m.value);
    }
  });
  const RunReport rep = run_round_robin(sim, 100);
  EXPECT_TRUE(rep.hit_step_limit);
  EXPECT_EQ(rep.decided.size(), 0u);
}

TEST(RandomRun, DeterministicForSeed) {
  auto s1 = make_pair_sim();
  auto s2 = make_pair_sim();
  RandomRunOptions opts;
  opts.seed = 99;
  run_random(*s1, opts);
  run_random(*s2, opts);
  EXPECT_EQ(s1->decision(0), s2->decision(0));
  EXPECT_EQ(s1->decision(1), s2->decision(1));
}

TEST(RandomRun, CrashInjectionRespectsBudget) {
  int total_crashes = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    auto sim = make_pair_sim();
    RandomRunOptions opts;
    opts.seed = seed;
    opts.max_crashes = 1;
    opts.crash_num = 30;
    const RunReport rep = run_random(*sim, opts);
    EXPECT_LE(rep.crashed.size(), 1u);
    total_crashes += static_cast<int>(rep.crashed.size());
    // The survivor (if any) always decides: the protocol is wait-free.
    for (Pid p = 0; p < 2; ++p) {
      if (!sim->crashed(p)) {
        EXPECT_TRUE(sim->terminated(p));
      }
    }
  }
  EXPECT_GT(total_crashes, 0);  // the adversary did act across seeds
}

TEST(RandomRun, DonePredicateStopsEarly) {
  auto sim = make_chatty_sim();
  RandomRunOptions opts;
  opts.seed = 3;
  opts.done = p1_decided;
  const RunReport rep = run_random(*sim, opts);
  EXPECT_FALSE(rep.hit_step_limit);
  EXPECT_TRUE(sim->terminated(1));
  EXPECT_EQ(sim->decision(1).as_u64(), 42u);
}

// ----------------------------------------------------------- step cap --
// A run is cut only if it could still go on at the cap: a run whose last
// step lands exactly on `max_steps` and finishes reports no step limit.

bool never(const Sim&) { return false; }

/// Runs `make`'s Sim uncapped to learn how many steps a finished run takes,
/// then again with the cap at exactly that many (not cut, same outcome)
/// and at one fewer (cut).
void expect_cap_boundary(const std::function<std::unique_ptr<Sim>()>& make,
                         const std::function<RunReport(Sim&, long)>& run) {
  auto free_sim = make();
  const RunReport full = run(*free_sim, 1'000'000);
  ASSERT_FALSE(full.hit_step_limit);
  ASSERT_GT(full.steps, 0);

  auto exact_sim = make();
  const RunReport exact = run(*exact_sim, full.steps);
  EXPECT_EQ(exact.steps, full.steps);
  EXPECT_FALSE(exact.hit_step_limit);
  EXPECT_EQ(exact.decided, full.decided);

  auto short_sim = make();
  const RunReport cut = run(*short_sim, full.steps - 1);
  EXPECT_EQ(cut.steps, full.steps - 1);
  EXPECT_TRUE(cut.hit_step_limit);
}

TEST(StepCap, RoundRobinEndingOnTheCapIsNotCut) {
  expect_cap_boundary(make_pair_sim, [](Sim& sim, long cap) {
    return run_round_robin(sim, cap);
  });
  auto sim = make_pair_sim();
  EXPECT_EQ(run_round_robin(*sim, 6).steps, 6);  // start, write, read each
}

TEST(StepCap, RoundRobinUntilEndingOnTheCapIsNotCut) {
  // Ended by termination: the predicate never holds.
  expect_cap_boundary(make_pair_sim, [](Sim& sim, long cap) {
    return run_round_robin_until(sim, never, cap);
  });
  // Ended by the predicate while the server is still enabled.
  expect_cap_boundary(make_chatty_sim, [](Sim& sim, long cap) {
    return run_round_robin_until(sim, p1_decided, cap);
  });
}

TEST(StepCap, RandomRunEndingOnTheCapIsNotCut) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_cap_boundary(make_pair_sim, [seed](Sim& sim, long cap) {
      RandomRunOptions opts;
      opts.seed = seed;
      opts.max_steps = cap;
      return run_random(sim, opts);
    });
    expect_cap_boundary(make_chatty_sim, [seed](Sim& sim, long cap) {
      RandomRunOptions opts;
      opts.seed = seed;
      opts.max_steps = cap;
      opts.done = p1_decided;
      return run_random(sim, opts);
    });
  }
}

TEST(RunSchedule, ReplaysAndStopsOnInapplicable) {
  auto sim = make_pair_sim();
  const std::vector<Choice> sched = {
      {Choice::Kind::Step, 0, -1},   // start
      {Choice::Kind::Step, 0, -1},   // write
      {Choice::Kind::Crash, 1, -1},  // p1 crashes before any step
      {Choice::Kind::Step, 0, -1},   // read
      {Choice::Kind::Step, 1, -1},   // inapplicable: p1 crashed
  };
  const std::size_t applied = run_schedule(*sim, sched);
  EXPECT_EQ(applied, 4u);
  EXPECT_TRUE(sim->terminated(0));
  EXPECT_EQ(sim->decision(0).as_u64(), 0u);  // never saw p1's write
}

}  // namespace
}  // namespace bsr::sim
