// Differential tests for schedule counting through the transposition table
// (sim/tt.h).
//
// Semantics under a TT: the explorer expands each distinct reachable world
// state once and adds a revisited state's memoized schedule count, so the
// returned count is the ReplayExplorer oracle's schedule count, the visitor
// runs once per distinct final configuration, and the SET of final states /
// violations is identical to the search without a table — checked here
// against the oracle, which knows nothing about hashing or rewinding.
// ExploreTTOracle runs the same differential on Algorithm 1 in each table
// configuration of `bsr explore`.
// The one-visit claims require stats().drops == 0 (a full probe window
// falls back to exploring, which keeps the count exact but may visit a
// final configuration again).
#include "sim/tt.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "core/alg1.h"
#include "sim/explore.h"
#include "sim/sim.h"
#include "sim/zobrist.h"
#include "support/replay_explorer.h"
#include "util/errors.h"

namespace bsr::sim {
namespace {

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

/// Two multi-writer processes racing a single write-once register: the
/// world state converges under both write orders but the violation log
/// blames a different pid in each.
std::unique_ptr<Sim> make_write_once_race() {
  auto sim = std::make_unique<Sim>(2);
  const int reg = sim->add_input_register("W", -1);
  auto body = [reg](Env& env) -> Proc {
    co_await env.write(reg, Value(7));
    co_return Value(0);
  };
  sim->spawn(0, body);
  sim->spawn(1, body);
  sim->set_violation_collecting(true);
  return sim;
}

/// Two senders racing into one receiver, exercising the channel-queue hash
/// components.
std::unique_ptr<Sim> make_recv_race() {
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
    co_return m.value;
  });
  return sim;
}

/// The same exploration through the incremental engine with a fresh 4 MiB
/// TT (`bsr explore`'s default); `also`, if set, sees every leaf too.
Observed tt_run(const Explorer::Factory& make, ExploreOptions opts,
                int threads = 1, const Explorer::Visitor& also = {}) {
  Observed obs;
  auto tt = std::make_shared<TranspositionTable>(std::size_t{1} << 22);
  opts.tt = tt;
  opts.threads = threads;
  obs.count = Explorer(opts).explore(
      make, [&](Sim& sim, const std::vector<Choice>& schedule) {
        obs.record(sim, sim.state_hash());
        if (also) also(sim, schedule);
      });
  EXPECT_EQ(tt->stats().drops, 0) << "probe window overflowed; grow the table";
  EXPECT_GT(tt->stats().stores, 0);
  return obs;
}

TEST(ExploreTT, FirstVisitClaimsEachHashOnce) {
  TranspositionTable tt(std::size_t{1} << 16);
  EXPECT_TRUE(tt.claim(42).first);
  const TranspositionTable::Claim again = tt.claim(42);
  EXPECT_FALSE(again.first);
  EXPECT_EQ(again.count, TranspositionTable::kPending);  // not published yet
  tt.publish(42, 20);
  EXPECT_EQ(tt.claim(42).count, 20);
  EXPECT_TRUE(tt.claim(0).first);  // zero remaps to a sentinel, still works
  EXPECT_FALSE(tt.claim(0).first);
  EXPECT_TRUE(tt.claim(7).first);
  const TranspositionTable::Stats s = tt.stats();
  EXPECT_EQ(s.probes, 6);
  EXPECT_EQ(s.stores, 3);
  EXPECT_EQ(s.hits, 3);
  EXPECT_EQ(s.drops, 0);
  EXPECT_GE(s.slots * TranspositionTable::kSlotBytes, std::size_t{1} << 16);
}

// Colliding hashes spill along the probe window, wrap past the last slot,
// and are still claimed once each; a window that is full drops the insert
// and tells the caller to explore. Hashes are built as (tag << 10) | home so
// each lands on a chosen home slot of the minimum-size table.
TEST(ExploreTT, FirstVisitClaimsAcrossCollisionsAndDropsAFullWindow) {
  TranspositionTable tt(0);  // the minimum: 1024 slots
  ASSERT_EQ(tt.capacity(), 1024u);
  const auto at = [](std::uint64_t home, std::uint64_t tag) {
    return (tag << 10) | home;
  };
  std::vector<std::uint64_t> claimed;
  // Four hashes sharing home 5 spill into slots 6..8; three with home 1023
  // wrap to slots 0 and 1; sixteen with home 100 fill the whole probe
  // window, 100..115.
  for (std::uint64_t tag = 1; tag <= 4; ++tag) claimed.push_back(at(5, tag));
  for (std::uint64_t tag = 1; tag <= 3; ++tag) claimed.push_back(at(1023, tag));
  for (std::uint64_t tag = 1; tag <= 16; ++tag) claimed.push_back(at(100, tag));
  for (const std::uint64_t h : claimed) ASSERT_TRUE(tt.claim(h).first) << h;
  // Each hash's count lands in its own slot, wherever it spilled to.
  for (std::size_t i = 0; i < claimed.size(); ++i) {
    tt.publish(claimed[i], static_cast<long>(i) + 1);
  }
  for (std::size_t i = 0; i < claimed.size(); ++i) {
    const TranspositionTable::Claim c = tt.claim(claimed[i]);
    EXPECT_FALSE(c.first) << claimed[i];
    EXPECT_EQ(c.count, static_cast<long>(i) + 1) << claimed[i];
  }

  // A seventeenth hash for home 100 finds no free slot: dropped, so it is
  // "first" every time it is asked, and publishing its count is ignored.
  EXPECT_TRUE(tt.claim(at(100, 99)).first);
  tt.publish(at(100, 99), 5);
  EXPECT_TRUE(tt.claim(at(100, 99)).first);

  const TranspositionTable::Stats s = tt.stats();
  const long n = static_cast<long>(claimed.size());
  EXPECT_EQ(s.probes, 2 * n + 2);
  EXPECT_EQ(s.stores, n);
  EXPECT_EQ(s.hits, n);
  EXPECT_EQ(s.drops, 2);
}

// Sizing divides the byte budget instead of multiplying the slot count: a
// budget near SIZE_MAX once wrapped the product, then the count, to zero and
// looped forever. It must fail at the allocation instead.
TEST(ExploreTT, OversizedTableThrowsInsteadOfHanging) {
  EXPECT_ANY_THROW(
      TranspositionTable(std::numeric_limits<std::size_t>::max()));
}

TEST(ExploreTT, PrunesToDistinctFinalStatesOnPairRace) {
  const Observed oracle = replay_oracle(make_pair_sim, ExploreOptions{});
  EXPECT_EQ(oracle.count, 20);  // schedules: interleavings of 3+3 steps
  // Final states: both registers hold 1; the reads give (0,1), (1,0) or
  // (1,1) — reading 0 on both sides is impossible.
  EXPECT_EQ(oracle.finals.size(), 3u);

  const Observed tt = tt_run(make_pair_sim, ExploreOptions{});
  EXPECT_EQ(tt.count, oracle.count);
  EXPECT_EQ(tt.visits, 3);
  EXPECT_EQ(tt.finals, oracle.finals);
}

TEST(ExploreTT, PreservesChannelStatesOnRecvRace) {
  const Observed oracle = replay_oracle(make_recv_race, ExploreOptions{});
  const Observed tt = tt_run(make_recv_race, ExploreOptions{});
  EXPECT_EQ(tt.count, oracle.count);
  EXPECT_EQ(tt.visits, static_cast<long>(oracle.finals.size()));
  EXPECT_EQ(tt.finals, oracle.finals);
}

TEST(ExploreTT, ConvergedStatesWithDistinctViolationBlameAreKept) {
  const Observed oracle = replay_oracle(make_write_once_race, ExploreOptions{});
  EXPECT_EQ(oracle.count, 6);
  // The two write orders converge in world state but not in the violation
  // log (a different pid is blamed), so the pruned search must still reach
  // both final states and report both findings.
  EXPECT_EQ(oracle.finals.size(), 2u);
  ASSERT_EQ(oracle.violations.size(), 2u);

  const Observed tt = tt_run(make_write_once_race, ExploreOptions{});
  EXPECT_EQ(tt.count, oracle.count);
  EXPECT_EQ(tt.visits, 2);
  EXPECT_EQ(tt.finals, oracle.finals);
  EXPECT_EQ(tt.violations, oracle.violations);
}

TEST(ExploreTT, ParallelCountMatchesSerialCount) {
  const Observed serial = tt_run(make_pair_sim, ExploreOptions{});
  const Observed par = tt_run(make_pair_sim, ExploreOptions{}, 4);
  EXPECT_EQ(par.count, serial.count);
  EXPECT_EQ(par.visits, serial.visits);
  EXPECT_EQ(par.finals, serial.finals);

  const Observed serial2 = tt_run(make_recv_race, ExploreOptions{});
  const Observed par2 = tt_run(make_recv_race, ExploreOptions{}, 4);
  EXPECT_EQ(par2.count, serial2.count);
  EXPECT_EQ(par2.visits, serial2.visits);
  EXPECT_EQ(par2.finals, serial2.finals);
}

TEST(ExploreTT, SharedTableMemoizesWholeRepeatedSearches) {
  auto tt = std::make_shared<TranspositionTable>(std::size_t{1} << 20);
  ExploreOptions opts;
  opts.tt = tt;
  const Explorer ex(opts);
  long visits = 0;
  const auto count_visits = [&visits](Sim&, const std::vector<Choice>&) {
    ++visits;
  };
  const long first = ex.explore(make_pair_sim, count_visits);
  EXPECT_EQ(first, 20);
  EXPECT_EQ(visits, 3);
  // Same factory, same table: the root state's count is already published,
  // so the whole search is answered at depth zero, without a visit.
  visits = 0;
  const long second = ex.explore(make_pair_sim, count_visits);
  EXPECT_EQ(second, 20);
  EXPECT_EQ(visits, 0);
}

// Memoized counts grow exponentially with the depth: Algorithm 1 at k = 32
// with two crashes has more than 2^63 schedules, which must be an error in
// both engines, never a wrapped count.
TEST(ExploreTT, CountPastTheRangeOfLongIsAnError) {
  const auto make = [] {
    auto sim = std::make_unique<Sim>(2);
    core::install_alg1(*sim, 32, {0, 1});
    return sim;
  };
  for (const int threads : {1, 4}) {
    ExploreOptions opts;
    opts.max_steps = 1000;
    opts.max_crashes = 2;
    opts.threads = threads;
    opts.tt = std::make_shared<TranspositionTable>(std::size_t{1} << 22);
    EXPECT_THROW(
        Explorer(opts).explore(make, [](Sim&, const std::vector<Choice>&) {}),
        UsageError)
        << threads << " threads";
  }
}

struct Alg1Config {
  const char* name;
  std::uint64_t k;
  int crashes;
  bool por;
  int threads;  ///< 0 defers to BSR_EXPLORE_THREADS, as `bsr explore` does.
};

// Names each case in the discovered ctest names; gtest would otherwise print
// the struct's raw bytes, the name pointer among them.
void PrintTo(const Alg1Config& c, std::ostream* os) { *os << c.name; }

class ExploreTTOracle : public ::testing::TestWithParam<Alg1Config> {};

// Algorithm 1 under the table, alone or with POR, serial or parallel: the
// count of the same search without a table (the oracle's schedule count, or
// under POR the reduced search's), one visit per distinct final state of the
// replay oracle's, the same final states and decision spread, the paper's
// gap bound, and no dropped insert.
TEST_P(ExploreTTOracle, MatchesReplayOracle) {
  const Alg1Config& c = GetParam();
  const auto make = [k = c.k] {
    auto sim = std::make_unique<Sim>(2);
    core::install_alg1(*sim, k, {0, 1});
    return sim;
  };
  ExploreOptions opts;
  opts.max_steps = 1000;
  opts.max_crashes = c.crashes;
  core::Alg1Spread want;
  const Observed oracle =
      replay_oracle(make, opts, [&](Sim& sim, const std::vector<Choice>&) {
        want.record(sim);
      });

  opts.por = c.por;
  long expected = oracle.count;
  if (c.por) {
    ExploreOptions plain = opts;
    plain.threads = 1;
    expected = Explorer(plain).explore(make,
                                       [](Sim&, const std::vector<Choice>&) {});
  }
  core::Alg1Spread got;
  const Observed pruned = tt_run(
      make, opts, c.threads,
      [&](Sim& sim, const std::vector<Choice>&) { got.record(sim); });
  EXPECT_EQ(pruned.finals, oracle.finals);
  EXPECT_EQ(pruned.count, expected);
  EXPECT_EQ(pruned.visits, static_cast<long>(oracle.finals.size()));
  EXPECT_EQ(got, want);
  EXPECT_LE(got.max_gap, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Alg1, ExploreTTOracle,
    ::testing::Values(Alg1Config{"k2", 2, 0, false, 0},
                      Alg1Config{"k2_threads4", 2, 0, false, 4},
                      Alg1Config{"k3", 3, 0, false, 0},
                      Alg1Config{"k3_threads4", 3, 0, false, 4},
                      Alg1Config{"k2_crashes1", 2, 1, false, 0},
                      Alg1Config{"k2_por", 2, 0, true, 0},
                      Alg1Config{"k2_crashes1_por", 2, 1, true, 0},
                      Alg1Config{"k3_por", 3, 0, true, 0}));

// Raw concurrency stress: many threads race claims over overlapping value
// streams, and each winner publishes the value's count right after its
// claim. Exactly one thread must win each distinct value; every hit must see
// either kPending or the published count; after the join every claimed value
// must be found again with its count. Run under TSan in CI (the suite name
// matches the Explore filter there).
TEST(ExploreTTStress, ConcurrentFirstVisitClaimsEachValueOnce) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kValues = 20000;
  TranspositionTable tt(std::size_t{8} << 20);  // ~26x headroom: no drops
  const auto count_of = [](std::uint64_t v) {
    return static_cast<long>(v) + 1;
  };
  std::vector<std::atomic<int>> wins(kValues);
  for (auto& w : wins) w.store(0, std::memory_order_relaxed);
  std::atomic<long> torn{0};
  {
    std::vector<std::jthread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        // Each thread walks the values from a different offset so the
        // races spread over the whole table.
        for (std::uint64_t i = 0; i < kValues; ++i) {
          const std::uint64_t v =
              (i + static_cast<std::uint64_t>(t) * (kValues / kThreads)) %
              kValues;
          // Mix so consecutive values do not probe adjacent slots.
          const TranspositionTable::Claim c = tt.claim(zobrist::mix(v + 1));
          if (c.first) {
            wins[v].fetch_add(1, std::memory_order_relaxed);
            tt.publish(zobrist::mix(v + 1), count_of(v));
          } else if (c.count != TranspositionTable::kPending &&
                     c.count != count_of(v)) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  ASSERT_EQ(tt.stats().drops, 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(tt.stats().stores, static_cast<long>(kValues));
  for (std::uint64_t v = 0; v < kValues; ++v) {
    ASSERT_EQ(wins[v].load(), 1) << "value " << v;
    const TranspositionTable::Claim c = tt.claim(zobrist::mix(v + 1));
    ASSERT_FALSE(c.first) << "value " << v;
    ASSERT_EQ(c.count, count_of(v)) << "value " << v;
  }
  // Every claim but the winning one hit, as did every claim after the join.
  EXPECT_EQ(tt.stats().hits, static_cast<long>(kThreads * kValues));
}

}  // namespace
}  // namespace bsr::sim
