// Full-registry differential: sleep-set partial-order reduction vs the
// ReplayExplorer oracle on EVERY terminating registry protocol, alone and
// composed with transposition-table deduplication. The fast smoke subset of the
// same properties lives in explore_por_test.cpp; this sweep carries the
// `slow` ctest label.
//
// The acceptance statement of the reduction, per protocol:
//   * POR alone visits at most as many schedules as the full search and
//     reaches exactly the same final-configuration set and the same
//     violation findings (bit-identical keys, not just kinds);
//   * POR + TT returns the POR-only count and visits exactly one schedule
//     per distinct final configuration, with zero drops; the table sees
//     complete states only, so it probes once per POR-only leaf, serial and
//     parallel alike.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "analysis/claims.h"
#include "sim/explore.h"
#include "sim/sim.h"
#include "sim/tt.h"
#include "sim/zobrist.h"
#include "support/replay_explorer.h"

namespace bsr::sim {
namespace {

TEST(ExplorePorSlow, MatchesReplayOracleOnEveryTerminatingRegistryProtocol) {
  long reduced_somewhere = 0;
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

    // POR alone: one representative per commutation class — same finals,
    // same violation findings, never more schedules than the full search.
    long por_leaves = 0;
    {
      ExploreOptions opts = spec.explore;
      opts.por = true;
      opts.threads = 1;
      Observed por;
      por.count = Explorer(opts).explore(
          [&make] {
            auto sim = make();
            sim->set_checkpointing(true);
            return sim;
          },
          [&](Sim& sim, const std::vector<Choice>&) {
            por.record(sim, zobrist::full_hash(sim));
          });
      EXPECT_LE(por.count, oracle.count);
      EXPECT_EQ(por.finals, oracle.finals);
      EXPECT_EQ(por.violations, oracle.violations);
      if (por.count < oracle.count) ++reduced_somewhere;
      por_leaves = por.count;
    }

    // POR + TT: the POR-only count, exactly one visit per distinct final
    // configuration (the table deduplicates the reduced search's leaves),
    // same finals, same findings.
    TranspositionTable::Stats serial_stats;
    {
      auto tt = std::make_shared<TranspositionTable>(std::size_t{16} << 20);
      ExploreOptions opts = spec.explore;
      opts.por = true;
      opts.tt = tt;
      opts.threads = 1;
      Observed both;
      both.count = Explorer(opts).explore(
          make, [&](Sim& sim, const std::vector<Choice>&) {
            both.record(sim, sim.state_hash());
          });
      serial_stats = tt->stats();
      ASSERT_EQ(serial_stats.drops, 0);
      EXPECT_EQ(both.count, por_leaves);
      EXPECT_EQ(both.visits, static_cast<long>(oracle.finals.size()));
      EXPECT_EQ(both.finals, oracle.finals);
      EXPECT_EQ(both.violations, oracle.violations);
      EXPECT_EQ(serial_stats.probes, por_leaves);
      EXPECT_EQ(serial_stats.stores, both.visits);
      EXPECT_EQ(serial_stats.hits, serial_stats.probes - serial_stats.stores);
    }

    // POR + TT on the parallel engine: the frontier jobs re-seed the serial
    // sleep sets, so the reduced tree — and therefore the count and the
    // table's counters — is the same.
    {
      auto tt = std::make_shared<TranspositionTable>(std::size_t{16} << 20);
      ExploreOptions opts = spec.explore;
      opts.por = true;
      opts.tt = tt;
      opts.threads = 4;
      long visits = 0;
      std::set<std::uint64_t> finals;
      const long count = Explorer(opts).explore(
          make, [&](Sim& sim, const std::vector<Choice>&) {
            ++visits;
            finals.insert(sim.state_hash());
          });
      ASSERT_EQ(tt->stats().drops, 0);
      EXPECT_EQ(count, por_leaves);
      EXPECT_EQ(visits, static_cast<long>(oracle.finals.size()));
      EXPECT_EQ(finals, oracle.finals);
      EXPECT_EQ(tt->stats().probes, serial_stats.probes);
      EXPECT_EQ(tt->stats().hits, serial_stats.hits);
      EXPECT_EQ(tt->stats().stores, serial_stats.stores);
    }
  }
  // The sweep must demonstrate an actual reduction on at least one
  // protocol, or the POR plumbing is dead code.
  EXPECT_GT(reduced_somewhere, 0);
}

}  // namespace
}  // namespace bsr::sim
