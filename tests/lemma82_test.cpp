// Verification of the Lemma 8.2 instantiation: 2-process ε-agreement in the
// IIS model with 1-bit registers per round, ε = 3^-r.
#include "core/lemma82.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "sim/explore.h"
#include "sim/sched.h"
#include "support/explore_pair.h"
#include "tasks/approx.h"
#include "tasks/checker.h"

namespace bsr::core {
namespace {

using sim::Choice;
using sim::Explorer;
using sim::ExploreOptions;
using sim::Sim;

struct L82Params {
  int rounds;
  std::uint64_t x0;
  std::uint64_t x1;
  int max_crashes;
};

class Lemma82Exhaustive : public ::testing::TestWithParam<L82Params> {};

TEST_P(Lemma82Exhaustive, SequentialSchedulesAlwaysAgree) {
  const auto p = GetParam();
  const std::uint64_t denom = pow3(p.rounds);
  const tasks::ApproxAgreement task(2, denom);
  const tasks::Config input{Value(p.x0), Value(p.x1)};
  ExploreOptions opts;
  opts.max_crashes = p.max_crashes;
  opts.max_steps = 100;
  long count = 0;
  Explorer ex(opts);
  ex.explore(
      [&]() {
        auto sim = std::make_unique<Sim>(2);
        install_labelling_agreement(*sim, p.rounds, {p.x0, p.x1});
        return sim;
      },
      [&](Sim& sim, const std::vector<Choice>&) {
        ++count;
        const auto check =
            tasks::check_outputs(task, input, tasks::decisions_of(sim));
        EXPECT_TRUE(check.ok) << check.detail;
        // O(log 1/ε) in base 3: r immediate snapshots + 3 other ops.
        for (int i = 0; i < 2; ++i) {
          if (!sim.crashed(i)) {
            EXPECT_LE(sim.steps(i), static_cast<long>(p.rounds) + 4);
          }
        }
      });
  EXPECT_GT(count, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma82Exhaustive,
    ::testing::Values(L82Params{1, 0, 1, 0}, L82Params{2, 0, 1, 0},
                      L82Params{2, 1, 0, 0}, L82Params{2, 1, 1, 0},
                      L82Params{3, 0, 1, 0}, L82Params{2, 0, 1, 1},
                      L82Params{3, 1, 0, 1}));

TEST(Lemma82, AllBlockSchedulesAgree) {
  // Exhaust the genuinely-concurrent IIS executions too: per round, the
  // three outcomes (p0's block first / p1's first / one simultaneous
  // block), which the step explorer does not produce.
  const int rounds = 4;
  const std::uint64_t denom = pow3(rounds);
  for (std::uint64_t x0 : {0ull, 1ull}) {
    for (std::uint64_t x1 : {0ull, 1ull}) {
      const tasks::ApproxAgreement task(2, denom);
      const tasks::Config input{Value(x0), Value(x1)};
      std::function<void(std::vector<int>&)> drive = [&](std::vector<int>&
                                                             pattern) {
        if (static_cast<int>(pattern.size()) == rounds) {
          Sim sim(2);
          install_labelling_agreement(sim, rounds, {x0, x1});
          sim.step(0);
          sim.step(1);  // starts
          sim.step(0);
          sim.step(1);  // input writes
          for (int oc : pattern) {
            switch (oc) {
              case 0:
                sim.step(0);
                sim.step(1);
                break;
              case 1:
                sim.step(1);
                sim.step(0);
                break;
              default:
                sim.step_block({0, 1});
            }
          }
          sim.step(0);
          sim.step(1);  // final input reads + decisions
          const auto check =
              tasks::check_outputs(task, input, tasks::decisions_of(sim));
          EXPECT_TRUE(check.ok) << check.detail;
          const std::uint64_t y0 = sim.decision(0).as_u64();
          const std::uint64_t y1 = sim.decision(1).as_u64();
          EXPECT_LE(y0 > y1 ? y0 - y1 : y1 - y0, 1u);
          return;
        }
        for (int oc = 0; oc < 3; ++oc) {
          pattern.push_back(oc);
          drive(pattern);
          pattern.pop_back();
        }
      };
      std::vector<int> pattern;
      drive(pattern);
    }
  }
}

TEST(Lemma82, ExhaustiveLargerRounds) {
  // r = 2…7 rounds over every schedule with at most one crash, per input
  // pair: the schedule and distinct-final counts depend on r only.
  struct RoundCounts {
    int rounds;
    long schedules;
    long finals;
  };
  for (const RoundCounts& r : {RoundCounts{2, 1'174, 30},
                               RoundCounts{3, 4'354, 52},
                               RoundCounts{4, 16'300, 94},
                               RoundCounts{5, 61'488, 176},
                               RoundCounts{6, 233'374, 338},
                               RoundCounts{7, 890'186, 660}}) {
    SCOPED_TRACE("rounds " + std::to_string(r.rounds));
    const tasks::ApproxAgreement task(2, pow3(r.rounds));
    for (std::uint64_t x0 : {0ull, 1ull}) {
      for (std::uint64_t x1 : {0ull, 1ull}) {
        const tasks::Config input{Value(x0), Value(x1)};
        test::explore_pair(
            {x0, x1, r.schedules, r.finals},
            [&] {
              auto sim = std::make_unique<Sim>(2);
              install_labelling_agreement(*sim, r.rounds, {x0, x1});
              return sim;
            },
            [&](Sim& sim, const std::vector<Choice>&) {
              const auto check =
                  tasks::check_outputs(task, input, tasks::decisions_of(sim));
              EXPECT_TRUE(check.ok) << check.detail;
              for (int i = 0; i < 2; ++i) {
                if (!sim.crashed(i)) {
                  EXPECT_TRUE(sim.terminated(i));
                }
              }
            });
      }
    }
  }
}

TEST(Lemma82, RegistersCarryOneDataBitPlusPresence) {
  Sim sim(2);
  const LabelAgreementHandles h = install_labelling_agreement(sim, 5, {0, 1});
  EXPECT_EQ(h.rounds.size(), 10u);
  run_round_robin(sim);
  for (int r : h.rounds) {
    const sim::Register& info = sim.register_info(r);
    EXPECT_EQ(info.width_bits, 2);       // 1 data bit + the ⊥ state
    EXPECT_TRUE(info.allows_bottom);
    EXPECT_LE(info.max_bits_written, 1);  // the data is a single bit
    EXPECT_LE(info.writes, 1);            // iterated write-once discipline
  }
}

TEST(Lemma82, ConvergenceIsBaseThree) {
  // The whole point vs Algorithm 6: r rounds give a 3^r grid.
  EXPECT_EQ(pow3(0), 1u);
  EXPECT_EQ(pow3(4), 81u);
  Sim sim(2);
  install_labelling_agreement(sim, 4, {0, 1});
  run_round_robin(sim);
  EXPECT_LE(sim.decision(0).as_u64(), 81u);
  EXPECT_THROW((void)pow3(40), UsageError);
}

}  // namespace
}  // namespace bsr::core
