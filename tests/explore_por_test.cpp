// Differential tests for sleep-set partial-order reduction (ExploreOptions
// ::por).
//
// Semantics under POR: the explorer skips any choice provably independent —
// per the static interference relation of analysis/static/interference.h —
// of every sibling already explored at the same node. The skipped
// interleavings commute, step by step, into ones explored earlier, so the
// SET of reachable final configurations and of collected violations is
// exactly that of the unreduced search, and the returned count shrinks to
// one representative per commutation class. A transposition table leaves
// that count alone: it sees complete states only, so it deduplicates the
// reduced search's leaves and the visitor runs once per distinct final
// configuration. All of this is checked here
// against the ReplayExplorer oracle, which knows nothing about footprints,
// sleeping, or hashing; the full-registry sweep of the same properties
// carries the `slow` label (explore_por_slow_test.cpp).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

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
Observed por_run(const Explorer::Factory& make, ExploreOptions opts,
                 int threads = 1) {
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
      });
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

TEST(ExplorePor, CrashChoicesStayExactUnderReduction) {
  ExploreOptions opts;
  opts.max_crashes = 1;
  const Observed oracle = replay_oracle(make_pair_sim, opts);
  const Observed por = por_run(make_pair_sim, opts);
  EXPECT_EQ(por.finals, oracle.finals);
  EXPECT_LE(por.count, oracle.count);
  const Observed por_tt = por_tt_run(make_pair_sim, opts);
  EXPECT_EQ(por_tt.count, por.count);
  EXPECT_EQ(por_tt.visits, static_cast<long>(oracle.finals.size()));
  EXPECT_EQ(por_tt.finals, oracle.finals);
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
