// Serial-vs-parallel explorer equivalence: the replay oracle and Explorer
// at 1, 2 and 8 threads (its serial path, then its frontier-partitioned
// pool) must enumerate the SAME multiset of executions
// (canonical schedule hashes with the decisions they reach) and report the
// same count, across crash budgets 0–2 and across register-, snapshot-,
// channel-, and Alg1/Alg2-based protocols. Plus edge cases: explore_until
// early-stop determinism, max_steps abort, a pre-stepped factory, and
// BSR_EXPLORE_THREADS resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/alg1.h"
#include "core/alg2.h"
#include "sim/explore.h"
#include "support/replay_explorer.h"
#include "tasks/approx.h"
#include "topo/bmz.h"
#include "util/errors.h"

namespace bsr::sim {
namespace {

/// FNV-1a over the canonical schedule: a collision-improbable fingerprint
/// of one execution that is independent of visit order.
std::uint64_t schedule_hash(const std::vector<Choice>& sched) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const Choice& c : sched) {
    mix(static_cast<std::uint64_t>(c.kind));
    mix(static_cast<std::uint64_t>(c.pid) + 1);
    mix(static_cast<std::uint64_t>(c.recv_from) + 2);
  }
  return h;
}

/// The schedule hash extended with every terminated process's decision:
/// an engine that resumed a process with a stale frame would reach the
/// same schedule with a different outcome.
std::uint64_t execution_hash(const Sim& sim, const std::vector<Choice>& sched) {
  std::uint64_t h = schedule_hash(sched);
  for (Pid p = 0; p < sim.n(); ++p) {
    if (sim.terminated(p)) h = (h ^ sim.decision(p).hash()) * 1099511628211ull;
  }
  return h;
}

struct Enumeration {
  long count = 0;
  std::vector<std::uint64_t> hashes;  // sorted: a multiset fingerprint
};

/// Runs one engine to exhaustion and fingerprints what it visited. The
/// parallel path serializes visitor calls, so the push_back is safe at any
/// thread count.
template <class Engine>
Enumeration enumerate(const Engine& engine, const Explorer::Factory& make) {
  Enumeration e;
  e.count = engine.explore(make, [&](Sim& sim, const std::vector<Choice>& sched) {
    e.hashes.push_back(execution_hash(sim, sched));
  });
  std::sort(e.hashes.begin(), e.hashes.end());
  EXPECT_EQ(static_cast<long>(e.hashes.size()), e.count);
  return e;
}

/// The core assertion: replay oracle == Explorer at 1, 2 and 8 threads, as
/// multisets of executions.
void expect_all_engines_agree(const Explorer::Factory& make,
                              ExploreOptions opts) {
  const Enumeration oracle = enumerate(ReplayExplorer(opts), make);
  EXPECT_GT(oracle.count, 0);

  for (int threads : {1, 2, 8}) {
    opts.threads = threads;
    const Enumeration got = enumerate(Explorer(opts), make);
    EXPECT_EQ(got.count, oracle.count) << "threads=" << threads;
    EXPECT_EQ(got.hashes, oracle.hashes) << "threads=" << threads;
  }
}

/// Write-then-read pair protocol (the canonical 4-step race).
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

/// Immediate-snapshot protocol: each process write-snapshots its id+1 and
/// decides on how many slots it saw filled.
std::unique_ptr<Sim> make_snapshot_sim() {
  auto sim = std::make_unique<Sim>(3);
  std::vector<int> group;
  for (int p = 0; p < 3; ++p) {
    group.push_back(sim->add_register("S" + std::to_string(p), p, kUnbounded,
                                      Value(0)));
  }
  for (int p = 0; p < 3; ++p) {
    sim->spawn(p, [group](Env& env) -> Proc {
      const int own = group[static_cast<std::size_t>(env.pid())];
      const OpResult snap = co_await env.write_snapshot(
          own, Value(static_cast<std::uint64_t>(env.pid()) + 1), group);
      std::uint64_t seen = 0;
      for (const Value& v : snap.value.as_vec()) {
        if (v.as_u64() != 0) ++seen;
      }
      co_return Value(seen);
    });
  }
  return sim;
}

/// Two senders to one receiver that takes `recv(-1)`: process 0 sends 1
/// then 2, process 1 sends 1, so two receive results can carry the same
/// payload from different senders. The receiver decides on everything it
/// received, and takes a third message only when the first came from
/// process 1, so its next request depends on the sender too.
std::unique_ptr<Sim> make_channel_sim() {
  auto sim = std::make_unique<Sim>(3);
  sim->spawn(0, [](Env& env) -> Proc {
    co_await env.send(2, Value(1));
    co_await env.send(2, Value(2));
    co_return Value(0);
  });
  sim->spawn(1, [](Env& env) -> Proc {
    co_await env.send(2, Value(1));
    co_return Value(0);
  });
  sim->spawn(2, [](Env& env) -> Proc {
    std::vector<Value> got;
    int want = 2;
    for (int i = 0; i < want; ++i) {
      const OpResult m = co_await env.recv();
      if (i == 0 && m.from == 1) want = 3;
      got.emplace_back(static_cast<std::uint64_t>(m.from));
      got.push_back(m.value);
    }
    co_return Value(std::move(got));
  });
  return sim;
}

TEST(ExploreEquivalence, PairProtocolAcrossCrashBudgets) {
  for (int crashes = 0; crashes <= 2; ++crashes) {
    ExploreOptions opts;
    opts.max_crashes = crashes;
    SCOPED_TRACE("crashes=" + std::to_string(crashes));
    expect_all_engines_agree(make_pair_sim, opts);
  }
}

TEST(ExploreEquivalence, SnapshotProtocolAcrossCrashBudgets) {
  for (int crashes = 0; crashes <= 2; ++crashes) {
    ExploreOptions opts;
    opts.max_crashes = crashes;
    opts.max_steps = 100;
    SCOPED_TRACE("crashes=" + std::to_string(crashes));
    expect_all_engines_agree(make_snapshot_sim, opts);
  }
}

TEST(ExploreEquivalence, ChannelProtocolAcrossCrashBudgets) {
  for (int crashes = 0; crashes <= 2; ++crashes) {
    ExploreOptions opts;
    opts.max_crashes = crashes;
    opts.max_steps = 100;
    SCOPED_TRACE("crashes=" + std::to_string(crashes));
    expect_all_engines_agree(make_channel_sim, opts);
  }
}

TEST(ExploreEquivalence, Alg1AcrossCrashBudgets) {
  const auto make = []() {
    auto sim = std::make_unique<Sim>(2);
    core::install_alg1(*sim, /*k=*/1, {0, 1});
    return sim;
  };
  for (int crashes = 0; crashes <= 2; ++crashes) {
    ExploreOptions opts;
    opts.max_crashes = crashes;
    opts.max_steps = 100;
    SCOPED_TRACE("crashes=" + std::to_string(crashes));
    expect_all_engines_agree(make, opts);
  }
}

TEST(ExploreEquivalence, Alg2Exhaustive) {
  // The hot workload of the verification suite (trimmed to a crash-free
  // budget and one input to keep the oracle pass affordable; the crash
  // matrix is exercised by the protocols above).
  const tasks::ApproxAgreement aa(2, 3);
  std::vector<Value> domain;
  for (std::uint64_t v = 0; v <= 3; ++v) domain.emplace_back(v);
  const tasks::ExplicitTask task = tasks::materialize(aa, domain);
  const topo::Bmz2 bmz(task);
  const topo::Bmz2Plan plan = bmz.plan();
  const auto make = [&plan]() {
    auto sim = std::make_unique<Sim>(2);
    core::install_alg2(*sim, plan, tasks::Config{Value(0), Value(1)});
    return sim;
  };
  ExploreOptions opts;
  opts.max_steps = 400;
  expect_all_engines_agree(make, opts);
}

TEST(ExploreEdgeCases, EarlyStopCountIsDeterministic) {
  // explore_until returns the number of executions the SERIAL order visits
  // up to and including the first stopping one — regardless of which
  // thread discovers it first.
  const auto stop_at_11 = [](Sim& sim, const std::vector<Choice>&) {
    return sim.terminated(0) && sim.terminated(1) &&
           sim.decision(0).as_u64() == 1 && sim.decision(1).as_u64() == 1;
  };
  ExploreOptions opts;
  opts.max_crashes = 1;
  const long oracle =
      ReplayExplorer(opts).explore_until(make_pair_sim, stop_at_11);
  EXPECT_GT(oracle, 0);
  for (int threads : {1, 2, 8}) {
    opts.threads = threads;
    const long got =
        Explorer(opts).explore_until(make_pair_sim, stop_at_11);
    EXPECT_EQ(got, oracle) << "threads=" << threads;
  }
}

TEST(ExploreEdgeCases, NeverStoppingPredicateVisitsEverything) {
  ExploreOptions opts;
  const long all = ReplayExplorer(opts).explore(
      make_pair_sim, [](Sim&, const std::vector<Choice>&) {});
  opts.threads = 8;
  const long got = Explorer(opts).explore_until(
      make_pair_sim, [](Sim&, const std::vector<Choice>&) { return false; });
  EXPECT_EQ(got, all);
}

TEST(ExploreEdgeCases, MaxStepsAbortsInEveryEngine) {
  const auto make = []() {
    auto sim = std::make_unique<Sim>(1);
    const int r = sim->add_register("R", 0, 1, Value(0));
    sim->spawn(0, [r](Env& env) -> Proc {
      for (;;) co_await env.write(r, Value(0));
    });
    return sim;
  };
  ExploreOptions opts;
  opts.max_steps = 50;
  const auto ignore = [](Sim&, const std::vector<Choice>&) {};
  EXPECT_THROW(ReplayExplorer(opts).explore(make, ignore), UsageError);
  for (int threads : {1, 2}) {
    opts.threads = threads;
    EXPECT_THROW(Explorer(opts).explore(make, ignore), UsageError);
  }
}

// The engine rewinds one live Sim, so it must schedule every step itself: a
// factory that steps its Sim first (here, the Start steps) is a UsageError
// on the serial path and on the parallel one.
TEST(ExploreEdgeCases, PreSteppedFactoryIsAUsageError) {
  const auto make = [] {
    auto sim = make_pair_sim();
    sim->step(0);
    sim->step(1);
    return sim;
  };
  const auto ignore = [](Sim&, const std::vector<Choice>&) {};
  for (int threads : {1, 4}) {
    ExploreOptions opts;
    opts.threads = threads;
    EXPECT_THROW(Explorer(opts).explore(make, ignore), UsageError)
        << "threads=" << threads;
  }
}

TEST(ExploreEdgeCases, ThreadResolutionFollowsEnvVar) {
  const char* saved = std::getenv(kExploreThreadsEnv);
  const std::string saved_copy = saved == nullptr ? "" : saved;

  ::unsetenv(kExploreThreadsEnv);
  EXPECT_EQ(resolve_explore_threads(0), 1);   // unset → serial
  EXPECT_EQ(resolve_explore_threads(3), 3);   // explicit option wins

  ::setenv(kExploreThreadsEnv, "5", 1);
  EXPECT_EQ(resolve_explore_threads(0), 5);
  EXPECT_EQ(resolve_explore_threads(2), 2);   // option still wins

  ::setenv(kExploreThreadsEnv, "auto", 1);
  EXPECT_GE(resolve_explore_threads(0), 1);

  ::setenv(kExploreThreadsEnv, "bogus", 1);
  EXPECT_THROW((void)resolve_explore_threads(0), UsageError);
  ::setenv(kExploreThreadsEnv, "-2", 1);
  EXPECT_THROW((void)resolve_explore_threads(0), UsageError);

  if (saved == nullptr) {
    ::unsetenv(kExploreThreadsEnv);
  } else {
    ::setenv(kExploreThreadsEnv, saved_copy.c_str(), 1);
  }
}

}  // namespace
}  // namespace bsr::sim
