// The counting search behind the exhaustive two-process suites
// (tests/alg2_test.cpp, tests/lemma82_test.cpp, tests/sec7_test.cpp): every
// schedule of one input pair with at most one crash, through a
// transposition table, with the pair's counts pinned.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/explore.h"
#include "sim/tt.h"

namespace bsr::test {

/// What one exhaustive input pair of a two-process protocol pins: its
/// schedules with at most one crash, and its distinct final configurations.
struct PairCounts {
  std::uint64_t x0;
  std::uint64_t x1;
  long schedules;
  long finals;
};

/// Counts every schedule of `make`'s two-process Sim with at most one crash
/// through a 4 MiB transposition table, which expands each state once and
/// visits each distinct final configuration once, and checks the pair's
/// pins and that the table dropped no claim (so no final went unvisited).
inline void explore_pair(const PairCounts& want,
                         const sim::Explorer::Factory& make,
                         const sim::Explorer::Visitor& visit) {
  SCOPED_TRACE("inputs " + std::to_string(want.x0) + std::to_string(want.x1));
  sim::ExploreOptions opts{.max_steps = 500, .max_crashes = 1, .threads = 1};
  opts.tt = std::make_shared<sim::TranspositionTable>(std::size_t{1} << 22);
  long finals = 0;
  const long schedules = sim::Explorer(opts).explore(
      make, [&](sim::Sim& sim, const std::vector<sim::Choice>& schedule) {
        ++finals;
        visit(sim, schedule);
      });
  EXPECT_EQ(opts.tt->stats().drops, 0) << "grow the table";
  EXPECT_EQ(schedules, want.schedules);
  EXPECT_EQ(finals, want.finals);
}

}  // namespace bsr::test
