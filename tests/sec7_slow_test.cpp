// The §7 searches too long for the smoke tier: Algorithm 5 (Borowsky–Gafni
// immediate snapshot in the IC model, Proposition 7.2) at n = 3 over every
// schedule with up to two crashes.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/sec7.h"
#include "sim/explore.h"
#include "sim/tt.h"
#include "support/alg5_check.h"

namespace bsr::core {
namespace {

using sim::Choice;
using sim::Explorer;
using sim::ExploreOptions;
using sim::Sim;

TEST(Alg5, ExhaustiveThreeProcessesTwoCrashes) {
  // Every schedule with up to two crashes. Sleep-set POR keeps one schedule
  // per commutation class and preserves the set of reachable finals; the
  // table, consulted at complete states under POR, has the visitor check
  // each distinct final configuration once. 0 drops means none was missed.
  ExploreOptions opts{.max_steps = 200, .max_crashes = 2, .threads = 1};
  opts.por = true;
  opts.tt = std::make_shared<sim::TranspositionTable>(std::size_t{1} << 24);
  long finals = 0;
  const long schedules = Explorer(opts).explore(
      [] {
        auto sim = std::make_unique<Sim>(3);
        install_alg5(*sim, test::alg5_inputs(3));
        return sim;
      },
      [&](Sim& sim, const std::vector<Choice>&) {
        ++finals;
        test::check_alg5_outputs(sim, 3);
      });
  EXPECT_EQ(opts.tt->stats().drops, 0) << "grow the table";
  EXPECT_EQ(schedules, 469'258);
  EXPECT_EQ(finals, 277'726);
}

}  // namespace
}  // namespace bsr::core
