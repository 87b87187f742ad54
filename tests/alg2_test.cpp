// Verification of Algorithm 2 (§5.2.3): the universal 2-process protocol
// with 3-bit coordination registers solves every BMZ-solvable task, in every
// execution — Lemma 5.8 and Theorem 1.2.
#include "core/alg2.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/explore.h"
#include "support/explore_pair.h"
#include "tasks/approx.h"
#include "tasks/checker.h"

namespace bsr::core {
namespace {

using sim::Choice;
using sim::Explorer;
using sim::ExploreOptions;
using sim::Sim;
using tasks::Config;
using tasks::ExplicitTask;

/// ApproxAgreement(2, m) materialized for the BMZ machinery.
ExplicitTask approx_task(std::uint64_t m) {
  const tasks::ApproxAgreement aa(2, m);
  std::vector<Value> domain;
  for (std::uint64_t v = 0; v <= m; ++v) domain.emplace_back(v);
  return tasks::materialize(aa, domain);
}

/// Checks the coordination registers of Algorithm 2 against the paper's
/// 3-bit claim: alg1's input register is 2 bits (⊥/0/1) and R is 1 bit.
void expect_three_bit_coordination(const Sim& sim, const Alg2Handles& h) {
  for (int i = 0; i < 2; ++i) {
    const sim::Register& input = sim.register_info(h.agree.input[i]);
    const sim::Register& comm = sim.register_info(h.agree.comm[i]);
    EXPECT_EQ(input.width_bits, 2);
    EXPECT_TRUE(input.allows_bottom);
    EXPECT_EQ(comm.width_bits, 1);
    // The task input registers are write-once input registers (free).
    EXPECT_TRUE(sim.register_info(h.task_input[i]).write_once);
  }
}

struct Alg2Params {
  std::uint64_t m;  // task precision
  std::uint64_t x0;
  std::uint64_t x1;
  int max_crashes;
};

class Alg2Exhaustive : public ::testing::TestWithParam<Alg2Params> {};

TEST_P(Alg2Exhaustive, SolvesApproxAgreementInEveryExecution) {
  const Alg2Params p = GetParam();
  const ExplicitTask task = approx_task(p.m);
  const topo::Bmz2 bmz(task);
  ASSERT_TRUE(bmz.solvable()) << bmz.failure_reason();
  const topo::Bmz2Plan& plan = bmz.plan();
  const Config input{Value(p.x0), Value(p.x1)};

  auto handles = std::make_shared<Alg2Handles>();
  auto make = [&, handles]() {
    auto sim = std::make_unique<Sim>(2);
    *handles = install_alg2(*sim, plan, input);
    return sim;
  };

  ExploreOptions opts;
  opts.max_crashes = p.max_crashes;
  opts.max_steps = 500;
  long executions = 0;
  Explorer ex(opts);
  ex.explore(make, [&](Sim& sim, const std::vector<Choice>&) {
    ++executions;
    const Config out = tasks::decisions_of(sim);
    const auto check = tasks::check_outputs(task, input, out);
    EXPECT_TRUE(check.ok) << check.detail;
    expect_three_bit_coordination(sim, *handles);
  });
  EXPECT_GT(executions, 0);
}

INSTANTIATE_TEST_SUITE_P(
    FailureFree, Alg2Exhaustive,
    ::testing::Values(Alg2Params{3, 0, 1, 0}, Alg2Params{3, 1, 0, 0},
                      Alg2Params{3, 0, 0, 0}, Alg2Params{3, 1, 1, 0},
                      Alg2Params{5, 0, 1, 0}));

INSTANTIATE_TEST_SUITE_P(
    OneCrash, Alg2Exhaustive,
    ::testing::Values(Alg2Params{3, 0, 1, 1}, Alg2Params{3, 1, 1, 1}));

TEST(Alg2, SolvesACustomNonTrivialTask) {
  // A small "ordered pairs" task: processes with inputs (a, b) must output
  // a pair from a diamond-shaped legal set; chosen so that Δ varies by
  // input and paths are non-trivial.
  auto c2 = [](std::uint64_t a, std::uint64_t b) {
    return Config{Value(a), Value(b)};
  };
  ExplicitTask::Delta delta;
  delta[c2(0, 0)] = {c2(0, 0), c2(0, 1), c2(1, 1)};
  delta[c2(0, 1)] = {c2(1, 1), c2(1, 2), c2(2, 2)};
  delta[c2(1, 0)] = {c2(1, 1), c2(2, 1), c2(2, 2)};
  delta[c2(1, 1)] = {c2(2, 2), c2(2, 3), c2(3, 3)};
  const ExplicitTask task("diamond", 2, delta);
  const topo::Bmz2 bmz(task);
  ASSERT_TRUE(bmz.solvable()) << bmz.failure_reason();

  for (std::uint64_t x0 = 0; x0 <= 1; ++x0) {
    for (std::uint64_t x1 = 0; x1 <= 1; ++x1) {
      const Config input{Value(x0), Value(x1)};
      Explorer ex(ExploreOptions{.max_steps = 500, .max_crashes = 1});
      ex.explore(
          [&]() {
            auto sim = std::make_unique<Sim>(2);
            install_alg2(*sim, bmz.plan(), input);
            return sim;
          },
          [&](Sim& sim, const std::vector<Choice>&) {
            const auto check =
                tasks::check_outputs(task, input, tasks::decisions_of(sim));
            EXPECT_TRUE(check.ok) << check.detail;
          });
    }
  }
}

TEST(Alg2, ExhaustiveLargerPrecision) {
  // ε = 1/9 over every schedule with at most one crash, per input pair.
  const ExplicitTask task = approx_task(9);
  const topo::Bmz2 bmz(task);
  ASSERT_TRUE(bmz.solvable()) << bmz.failure_reason();
  for (const test::PairCounts& want :
       {test::PairCounts{0, 0, 42'236'286, 403},
        test::PairCounts{1, 0, 42'236'286, 403},
        test::PairCounts{0, 1, 42'236'286, 403},
        test::PairCounts{1, 1, 42'236'286, 403}}) {
    const Config input{Value(want.x0), Value(want.x1)};
    test::explore_pair(
        want,
        [&] {
          auto sim = std::make_unique<Sim>(2);
          install_alg2(*sim, bmz.plan(), input);
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

TEST(Alg2, RejectsBadArguments) {
  const ExplicitTask task = approx_task(3);
  const topo::Bmz2 bmz(task);
  Sim sim(2);
  EXPECT_THROW(install_alg2(sim, bmz.plan(), Config{Value(0)}), UsageError);
  Sim sim3(3);
  EXPECT_THROW(install_alg2(sim3, bmz.plan(), Config{Value(0), Value(1)}),
               UsageError);
}

}  // namespace
}  // namespace bsr::core
