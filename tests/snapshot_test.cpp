// Tests of the register-based atomic snapshot (Lemma 2.3 construction).
#include "memory/snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "sim/explore.h"
#include "sim/sched.h"

namespace bsr::memory {
namespace {

using sim::Choice;
using sim::Env;
using sim::Explorer;
using sim::ExploreOptions;
using sim::Proc;
using sim::Sim;

/// True if view a is contained in view b (⊥ entries of a aside).
bool contained(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].is_bottom() && !(a[i] == b[i])) return false;
  }
  return true;
}

TEST(Snapshot, SequentialUpdateThenScan) {
  Sim sim(2);
  auto snap = std::make_shared<SnapshotObject>(sim, "S");
  sim.spawn(0, [snap](Env& env) -> Proc {
    co_await snap->update(env, Value(10));
    std::vector<Value> view = co_await snap->scan(env);
    co_return Value(std::move(view));
  });
  sim.spawn(1, [snap](Env& env) -> Proc {
    co_await snap->update(env, Value(20));
    std::vector<Value> view = co_await snap->scan(env);
    co_return Value(std::move(view));
  });
  run_round_robin(sim);
  // Sequentially consistent outcome under round-robin: both see both.
  EXPECT_EQ(sim.decision(0).at(0).as_u64(), 10u);
  EXPECT_EQ(sim.decision(1).at(1).as_u64(), 20u);
  EXPECT_EQ(sim.decision(1).at(0).as_u64(), 10u);
}

TEST(Snapshot, ScanSeesOwnPrecedingUpdate) {
  // Self-inclusion under every schedule (exhaustive, 2 processes).
  auto make = []() {
    auto sim = std::make_unique<Sim>(2);
    auto snap = std::make_shared<SnapshotObject>(*sim, "S");
    for (int i = 0; i < 2; ++i) {
      sim->spawn(i, [snap, i](Env& env) -> Proc {
        co_await snap->update(env, Value(100 + i));
        std::vector<Value> view = co_await snap->scan(env);
        co_return Value(std::move(view));
      });
    }
    return sim;
  };
  Explorer ex(ExploreOptions{.max_steps = 2000});
  long count = 0;
  ex.explore(make, [&](Sim& sim, const std::vector<Choice>&) {
    ++count;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(sim.terminated(i));
      EXPECT_EQ(sim.decision(i).at(static_cast<std::size_t>(i)).as_u64(),
                static_cast<std::uint64_t>(100 + i));
    }
  });
  EXPECT_GT(count, 100);
}

TEST(Snapshot, ConcurrentScansAreComparable) {
  // Atomicity hallmark: all scans returned in an execution are totally
  // ordered by containment. Checked on the first 6 000 2-process schedules,
  // in canonical order, where each process updates then scans twice.
  auto make = []() {
    auto sim = std::make_unique<Sim>(2);
    auto snap = std::make_shared<SnapshotObject>(*sim, "S");
    for (int i = 0; i < 2; ++i) {
      sim->spawn(i, [snap, i](Env& env) -> Proc {
        co_await snap->update(env, Value(100 + i));
        std::vector<Value> v1 = co_await snap->scan(env);
        std::vector<Value> v2 = co_await snap->scan(env);
        co_return make_vec(Value(std::move(v1)), Value(std::move(v2)));
      });
    }
    return sim;
  };
  long visited = 0;
  Explorer ex(ExploreOptions{.max_steps = 5000});
  ex.explore_until(make, [&](Sim& sim, const std::vector<Choice>&) {
    std::vector<std::vector<Value>> scans;
    for (int i = 0; i < 2; ++i) {
      if (!sim.terminated(i)) continue;
      scans.push_back(sim.decision(i).at(0).as_vec());
      scans.push_back(sim.decision(i).at(1).as_vec());
    }
    for (const auto& a : scans) {
      for (const auto& b : scans) {
        EXPECT_TRUE(contained(a, b) || contained(b, a));
      }
    }
    return ++visited == 6000;
  });
}

TEST(Snapshot, RandomizedThreeProcessComparability) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Sim sim(3);
    auto snap = std::make_shared<SnapshotObject>(sim, "S");
    for (int i = 0; i < 3; ++i) {
      sim.spawn(i, [snap, i](Env& env) -> Proc {
        std::vector<Value> views;
        for (int round = 0; round < 3; ++round) {
          co_await snap->update(env,
                                Value(static_cast<std::uint64_t>(
                                    10 * (i + 1) + round)));
          std::vector<Value> v = co_await snap->scan(env);
          views.emplace_back(std::move(v));
        }
        co_return Value(std::move(views));
      });
    }
    sim::RandomRunOptions opts;
    opts.seed = seed;
    const sim::RunReport rep = run_random(sim, opts);
    ASSERT_TRUE(rep.all_decided(3)) << "seed " << seed;
    // Each writer's values increase over time (10(i+1)+round), so
    // linearizable scans must be totally ordered by segment-wise numeric
    // comparison (⊥ ordered below everything).
    std::vector<std::vector<Value>> scans;
    for (int i = 0; i < 3; ++i) {
      for (const Value& v : sim.decision(i).as_vec()) {
        scans.push_back(v.as_vec());
      }
    }
    const auto leq = [](const std::vector<Value>& a,
                        const std::vector<Value>& b) {
      for (std::size_t j = 0; j < a.size(); ++j) {
        const std::int64_t x =
            a[j].is_bottom() ? -1 : static_cast<std::int64_t>(a[j].as_u64());
        const std::int64_t y =
            b[j].is_bottom() ? -1 : static_cast<std::int64_t>(b[j].as_u64());
        if (x > y) return false;
      }
      return true;
    };
    int incomparable = 0;
    for (const auto& a : scans) {
      for (const auto& b : scans) {
        if (!leq(a, b) && !leq(b, a)) ++incomparable;
      }
    }
    EXPECT_EQ(incomparable, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bsr::memory
