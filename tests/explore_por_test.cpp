// Differential tests for sleep-set partial-order reduction (ExploreOptions
// ::por).
//
// Semantics under POR: the explorer skips any choice provably independent —
// per the static interference relation of analysis/static/interference.h —
// of every sibling already explored at the same node. The skipped
// interleavings commute, step by step, into ones explored earlier, so the
// SET of reachable final configurations and of collected violations is
// exactly that of the unreduced search, and the returned count shrinks to
// one representative per commutation class. A crash whose every child
// choice would be asleep is put to sleep without being applied: a crash only
// sets its process's flag, so the child's choices are the node's minus the
// crashed process's (and minus every crash once the budget is spent), and
// such a child ends no schedule. A transposition table leaves the count
// alone: it sees complete states only, so it deduplicates the reduced
// search's leaves and the visitor runs once per distinct final
// configuration. All of this is checked here against the ReplayExplorer
// oracle, which knows nothing about footprints, sleeping, or hashing, over
// crash budgets 1 to 3 and 1 and 4 threads; the full-registry sweep of the
// same properties carries the `slow` label (explore_por_slow_test.cpp).
// The explorer's work counters (ExploreStats) are pinned on the
// full-information search: 556 381 nodes, 55 160 of them sleep-blocked, and
// 86 194 leaves.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/sec7.h"
#include "sim/explore.h"
#include "sim/sim.h"
#include "sim/tt.h"
#include "sim/zobrist.h"
#include "support/replay_explorer.h"

namespace bsr::sim {
namespace {

/// Two processes whose only shared accesses are one write each into the
/// OTHER-owned register's neighborhood: w(R0) and w(R1) commute, the
/// cross reads do not — a small tree with genuine reduction potential.
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

/// Fully independent: each process writes only its own register. Every
/// interleaving commutes into every other, so POR should collapse the
/// whole tree to very few representatives.
std::unique_ptr<Sim> make_disjoint_sim() {
  auto sim = std::make_unique<Sim>(3);
  for (Pid p = 0; p < 3; ++p) {
    const int reg = sim->add_register("D" + std::to_string(p),
                                      p, kUnbounded, Value(0));
    sim->spawn(p, [reg](Env& env) -> Proc {
      co_await env.write(reg, Value(1));
      co_await env.write(reg, Value(2));
      co_return Value(0);
    });
  }
  return sim;
}

/// Two multi-writer processes racing a single write-once register: both
/// write orders converge in world state but blame a different pid in the
/// violation log. The may-violate veto must keep these writes dependent,
/// so POR preserves BOTH findings.
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

/// The write-once race beside a third process that writes its own register
/// twice. Once one racer has written, the other's write may violate while
/// the third can still step: a crash of the third then has a sleeping peer
/// that may violate, which stays awake below it, so the crash is applied.
std::unique_ptr<Sim> make_write_once_trio() {
  auto sim = std::make_unique<Sim>(3);
  const int w = sim->add_input_register("W", -1);
  const int own = sim->add_register("O", 2, kUnbounded, Value(0));
  auto racer = [w](Env& env) -> Proc {
    co_await env.write(w, Value(7));
    co_return Value(0);
  };
  sim->spawn(0, racer);
  sim->spawn(1, racer);
  sim->spawn(2, [own](Env& env) -> Proc {
    co_await env.write(own, Value(1));
    co_await env.write(own, Value(2));
    co_return Value(0);
  });
  sim->set_violation_collecting(true);
  return sim;
}

/// Two senders racing into one receiver: sends on distinct channels
/// commute, a send and the matching receive do not.
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
    const OpResult a = co_await env.recv();
    const OpResult b = co_await env.recv();
    co_return Value(a.value.as_u64() * 100 + b.value.as_u64());
  });
  return sim;
}

/// The incremental engine with POR on and no table; finals via the
/// from-scratch hash oracle so they are comparable with replay_oracle's.
/// `stats`, if set, receives the search's work counters.
Observed por_run(const Explorer::Factory& make, ExploreOptions opts,
                 int threads = 1, ExploreStats* stats = nullptr) {
  Observed obs;
  opts.tt.reset();
  opts.por = true;
  opts.threads = threads;
  obs.count = Explorer(opts).explore(
      [&make] {
        auto sim = make();
        sim->set_checkpointing(true);
        return sim;
      },
      [&](Sim& sim, const std::vector<Choice>&) {
        obs.record(sim, zobrist::full_hash(sim));
      },
      stats);
  return obs;
}

/// POR composed with a transposition table; `stats`, if set, receives the
/// table's counters.
Observed por_tt_run(const Explorer::Factory& make, ExploreOptions opts,
                    int threads = 1,
                    TranspositionTable::Stats* stats = nullptr) {
  Observed obs;
  auto tt = std::make_shared<TranspositionTable>(std::size_t{1} << 22);
  opts.tt = tt;
  opts.por = true;
  opts.threads = threads;
  obs.count = Explorer(opts).explore(
      make, [&](Sim& sim, const std::vector<Choice>&) {
        obs.record(sim, sim.state_hash());
      });
  EXPECT_EQ(tt->stats().drops, 0) << "probe window overflowed; grow the table";
  if (stats != nullptr) *stats = tt->stats();
  return obs;
}

/// Under POR the table sees complete states only: it probes each leaf of
/// the POR-only search once, stores each distinct final configuration, and
/// hits on every other probe.
void expect_leaf_only_table(const TranspositionTable::Stats& s,
                            long por_leaves, std::size_t finals) {
  EXPECT_EQ(s.probes, por_leaves);
  EXPECT_EQ(s.stores, static_cast<long>(finals));
  EXPECT_EQ(s.hits, s.probes - s.stores);
}

/// The table's counters, comparable across runs.
std::array<long, 4> counters(const TranspositionTable::Stats& s) {
  return {s.probes, s.hits, s.stores, s.drops};
}

TEST(ExplorePor, PreservesFinalsWhileVisitingFewerSchedulesOnPairRace) {
  const Observed oracle = replay_oracle(make_pair_sim, ExploreOptions{});
  EXPECT_EQ(oracle.count, 20);       // interleavings of 3+3 steps
  EXPECT_EQ(oracle.finals.size(), 3u);

  const Observed por = por_run(make_pair_sim, ExploreOptions{});
  EXPECT_LT(por.count, oracle.count);  // some commutation class collapsed
  EXPECT_EQ(por.finals, oracle.finals);
}

TEST(ExplorePor, CollapsesAFullyIndependentTreeHard) {
  const Observed oracle = replay_oracle(make_disjoint_sim, ExploreOptions{});
  // 9 steps, 3 per process, all cross-process pairs independent: one final
  // state, and the reduced search should visit a tiny fraction of the
  // 9!/(3!)^3 = 1680 schedules.
  EXPECT_EQ(oracle.count, 1680);
  EXPECT_EQ(oracle.finals.size(), 1u);

  const Observed por = por_run(make_disjoint_sim, ExploreOptions{});
  EXPECT_EQ(por.finals, oracle.finals);
  EXPECT_LE(por.count, oracle.count / 10);
}

TEST(ExplorePor, KeepsBothWriteOnceBlameOrders) {
  const Observed oracle = replay_oracle(make_write_once_race, ExploreOptions{});
  ASSERT_EQ(oracle.violations.size(), 2u);

  // The racing writes both may-violate, so the reduction must not commute
  // them: every violation finding survives, bit-identical.
  const Observed por = por_run(make_write_once_race, ExploreOptions{});
  EXPECT_EQ(por.finals, oracle.finals);
  EXPECT_EQ(por.violations, oracle.violations);
}

TEST(ExplorePor, PreservesChannelSemanticsOnRecvRace) {
  const ExploreOptions opts;
  const Observed oracle = replay_oracle(make_recv_race, opts);
  // Message orders (10,20) and (20,10) are distinguishable by the receiver.
  EXPECT_GE(oracle.finals.size(), 2u);

  const Observed por = por_run(make_recv_race, opts);
  EXPECT_EQ(por.finals, oracle.finals);
  const Observed por_tt = por_tt_run(make_recv_race, opts);
  EXPECT_EQ(por_tt.finals, oracle.finals);
  EXPECT_EQ(por_tt.count, por.count);
  EXPECT_EQ(por_tt.visits, static_cast<long>(oracle.finals.size()));
}

TEST(ExplorePor, ComposedWithTtStillCountsDistinctFinalConfigurations) {
  for (const auto& factory :
       {&make_pair_sim, &make_disjoint_sim, &make_write_once_race}) {
    const Observed oracle = replay_oracle(*factory, ExploreOptions{});
    const Observed por = por_run(*factory, ExploreOptions{});
    TranspositionTable::Stats stats;
    const Observed por_tt = por_tt_run(*factory, ExploreOptions{}, 1, &stats);
    EXPECT_EQ(por_tt.count, por.count);
    EXPECT_EQ(por_tt.visits, static_cast<long>(oracle.finals.size()));
    EXPECT_EQ(por_tt.finals, oracle.finals);
    EXPECT_EQ(por_tt.violations, oracle.violations);
    expect_leaf_only_table(stats, por.count, oracle.finals.size());
  }
}

struct SmallSim {
  const char* name;
  std::unique_ptr<Sim> (*make)();
  /// The reduced count at max_crashes 1, 2 and 3, as the search returned it
  /// when it still applied every crash.
  std::array<long, 3> por_counts;
};

/// Every small instance above: register pairs, a fully independent tree,
/// may-violate writes and Recv sub-choices.
constexpr std::array<SmallSim, 5> kSmallSims{{
    {"pair", &make_pair_sim, {11, 29, 29}},
    {"disjoint", &make_disjoint_sim, {10, 64, 226}},
    {"write-once race", &make_write_once_race, {6, 14, 14}},
    {"write-once trio", &make_write_once_trio, {30, 62, 134}},
    {"recv race", &make_recv_race, {10, 38, 78}},
}};

TEST(ExplorePor, CrashChoicesStayExactUnderReduction) {
  // A crash whose child would find every choice asleep is put to sleep
  // without being applied, which must change no count. The sweep covers
  // crash chains (budgets 2 and 3), a budget larger than some instances'
  // process count, Recv sub-choices below a crash, and the guard where a
  // sleeping peer's write may violate (the trio): that write stays awake
  // below the crash, so the crash child is applied. Reordering a crash and
  // a violating step changes neither finals nor violations, so only the
  // pinned count sees that guard.
  for (const SmallSim& sim : kSmallSims) {
    for (const int crashes : {1, 2, 3}) {
      SCOPED_TRACE(std::string(sim.name) + ", max_crashes " +
                   std::to_string(crashes));
      ExploreOptions opts;
      opts.max_crashes = crashes;
      const Observed oracle = replay_oracle(sim.make, opts);
      const Observed por = por_run(sim.make, opts);
      EXPECT_EQ(por.finals, oracle.finals);
      EXPECT_EQ(por.violations, oracle.violations);
      EXPECT_LE(por.count, oracle.count);
      EXPECT_EQ(por.count, sim.por_counts[crashes - 1]);
      const Observed par = por_run(sim.make, opts, 4);
      EXPECT_EQ(par.count, por.count);
      EXPECT_EQ(par.finals, oracle.finals);
      EXPECT_EQ(par.violations, oracle.violations);
      const Observed por_tt = por_tt_run(sim.make, opts);
      EXPECT_EQ(por_tt.count, por.count);
      EXPECT_EQ(por_tt.visits, static_cast<long>(oracle.finals.size()));
      EXPECT_EQ(por_tt.finals, oracle.finals);
    }
  }
}

TEST(ExplorePor, StatsCountTheReducedSearchSerialAndParallel) {
  for (const SmallSim& sim : kSmallSims) {
    for (const int crashes : {0, 1, 2}) {
      SCOPED_TRACE(std::string(sim.name) + ", max_crashes " +
                   std::to_string(crashes));
      ExploreOptions opts;
      opts.max_crashes = crashes;
      ExploreStats serial;
      const Observed por = por_run(sim.make, opts, 1, &serial);
      EXPECT_EQ(serial.leaves, por.count);
      EXPECT_GE(serial.nodes, serial.leaves);
      ExploreStats par;
      const Observed par_obs = por_run(sim.make, opts, 4, &par);
      EXPECT_EQ(par.leaves, serial.leaves);
      EXPECT_EQ(par.leaves, par_obs.count);
    }
  }
}

TEST(ExplorePor, StatsPinTheFullInformationSearch) {
  // The full-information IC protocol (Algorithm 3), n = 3, k = 3, at most
  // one crash, with a table: perfbench's explore-fullinfo instance. Every
  // leaf is a distinct final. Each sleep-blocked node follows a step that
  // ended its process, which a sleep set cannot foresee.
  auto tt = std::make_shared<TranspositionTable>(std::size_t{1} << 22);
  ExploreOptions opts;
  opts.max_steps = 1000;
  opts.max_crashes = 1;
  opts.threads = 1;
  opts.tt = tt;
  opts.por = true;
  ExploreStats stats;
  long visits = 0;
  const long count = Explorer(opts).explore(
      [] {
        auto sim = std::make_unique<Sim>(3);
        core::install_full_info_ic(*sim, 3, {Value(0), Value(1), Value(2)});
        return sim;
      },
      [&](Sim&, const std::vector<Choice>&) { ++visits; }, &stats);
  ASSERT_EQ(tt->stats().drops, 0) << "probe window overflowed; grow the table";
  EXPECT_EQ(count, 86'194);
  EXPECT_EQ(visits, 86'194);
  EXPECT_EQ(stats.leaves, 86'194);
  EXPECT_EQ(stats.nodes, 556'381);
  EXPECT_EQ(stats.sleep_blocked, 55'160);
}

TEST(ExplorePor, ParallelEngineExploresTheSameReducedTree) {
  for (const auto& factory : {&make_pair_sim, &make_disjoint_sim}) {
    const Observed por = por_run(*factory, ExploreOptions{});
    TranspositionTable::Stats serial_stats;
    const Observed serial =
        por_tt_run(*factory, ExploreOptions{}, 1, &serial_stats);
    EXPECT_EQ(serial.count, por.count);
    EXPECT_EQ(serial.visits, static_cast<long>(serial.finals.size()));
    expect_leaf_only_table(serial_stats, por.count, serial.finals.size());
    for (int threads : {2, 4}) {
      TranspositionTable::Stats par_stats;
      const Observed par =
          por_tt_run(*factory, ExploreOptions{}, threads, &par_stats);
      EXPECT_EQ(par.count, serial.count);
      EXPECT_EQ(par.visits, serial.visits);
      EXPECT_EQ(par.finals, serial.finals);
      EXPECT_EQ(counters(par_stats), counters(serial_stats))
          << threads << " threads";
    }
  }
}

TEST(ExplorePor, OffByDefaultAndBitIdenticalWhenOff) {
  // por = false must leave the engine exactly as before: the visited count
  // equals the oracle's schedule count.
  ExploreOptions opts;
  EXPECT_FALSE(opts.por);
  Observed plain;
  plain.count = Explorer(opts).explore(
      [] {
        auto sim = make_pair_sim();
        sim->set_checkpointing(true);
        return sim;
      },
      [&](Sim& sim, const std::vector<Choice>&) {
        plain.finals.insert(zobrist::full_hash(sim));
      });
  const Observed oracle = replay_oracle(make_pair_sim, ExploreOptions{});
  EXPECT_EQ(plain.count, oracle.count);
  EXPECT_EQ(plain.finals, oracle.finals);
}

}  // namespace
}  // namespace bsr::sim
