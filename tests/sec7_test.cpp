// Verification of §7: Algorithm 5 (Borowsky–Gafni immediate snapshot in the
// IC model, Proposition 7.2) and Algorithm 4 (1-bit IIS simulation of
// full-information protocols, Proposition 7.1 / Theorem 1.4).
#include "core/sec7.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "memory/iis.h"
#include "sim/explore.h"
#include "sim/sched.h"
#include "sim/tt.h"
#include "tasks/approx.h"
#include "tasks/checker.h"

namespace bsr::core {
namespace {

using sim::Choice;
using sim::Explorer;
using sim::ExploreOptions;
using sim::Sim;
using tasks::Config;

// ---------------------------------------------------------------- Alg. 5 --

std::vector<Value> inputs_for(int n) {
  std::vector<Value> xs;
  for (int i = 0; i < n; ++i) xs.emplace_back(static_cast<std::uint64_t>(100 + i));
  return xs;
}

void check_alg5_outputs(const Sim& sim, int n) {
  const std::vector<Value> xs = inputs_for(n);
  std::vector<sim::Pid> decided;
  std::vector<std::vector<Value>> views(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (!sim.crashed(i)) {
      ASSERT_TRUE(sim.terminated(i)) << "alive process " << i << " undecided";
    }
    if (sim.terminated(i)) {
      decided.push_back(i);
      views[static_cast<std::size_t>(i)] = sim.decision(i).as_vec();
    }
  }
  // The decided snapshots satisfy the immediate-snapshot properties:
  // validity, self-containment, inclusion (§7 preliminaries).
  EXPECT_TRUE(memory::check_is_properties(xs, views, decided));
}

struct Alg5Params {
  int n;
  int max_crashes;
};

class Alg5Exhaustive : public ::testing::TestWithParam<Alg5Params> {};

TEST_P(Alg5Exhaustive, SnapshotsSatisfyISPropertiesInEveryExecution) {
  const auto p = GetParam();
  auto make = [&]() {
    auto sim = std::make_unique<Sim>(p.n);
    install_alg5(*sim, inputs_for(p.n));
    return sim;
  };
  ExploreOptions opts;
  opts.max_crashes = p.max_crashes;
  opts.max_steps = 200;
  long count = 0;
  Explorer ex(opts);
  ex.explore(make, [&](Sim& sim, const std::vector<Choice>&) {
    ++count;
    check_alg5_outputs(sim, p.n);
  });
  EXPECT_GT(count, 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Alg5Exhaustive,
                         ::testing::Values(Alg5Params{2, 0}, Alg5Params{2, 1}));

TEST(Alg5, RandomizedThreeAndFourProcesses) {
  for (int n : {3, 4}) {
    for (std::uint64_t seed = 0; seed < 150; ++seed) {
      Sim sim(n);
      install_alg5(sim, inputs_for(n));
      sim::RandomRunOptions opts;
      opts.seed = seed;
      opts.max_crashes = n - 1;
      const sim::RunReport rep = run_random(sim, opts);
      EXPECT_FALSE(rep.hit_step_limit);
      check_alg5_outputs(sim, n);
    }
  }
}

TEST(Alg5, SoloProcessSnapshotsItself) {
  Sim sim(3);
  install_alg5(sim, inputs_for(3));
  sim.crash(1);
  sim.crash(2);
  run_round_robin(sim);
  ASSERT_TRUE(sim.terminated(0));
  const auto& v = sim.decision(0).as_vec();
  EXPECT_EQ(v[0].as_u64(), 100u);
  EXPECT_TRUE(v[1].is_bottom());
  EXPECT_TRUE(v[2].is_bottom());
}

TEST(Alg5, SynchronousRunGivesIdenticalFullSnapshots) {
  const int n = 4;
  Sim sim(n);
  install_alg5(sim, inputs_for(n));
  run_round_robin(sim);
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(sim.terminated(i));
  }
  // Under round-robin every process writes before anyone's collect of the
  // first memory completes... processes proceed in near-lockstep; at least
  // the snapshots must be totally ordered and the largest must be full.
  std::vector<std::vector<Value>> views;
  for (int i = 0; i < n; ++i) views.push_back(sim.decision(i).as_vec());
  std::size_t max_size = 0;
  for (const auto& v : views) {
    std::size_t sz = 0;
    for (const Value& x : v) sz += x.is_bottom() ? 0 : 1;
    max_size = std::max(max_size, sz);
  }
  EXPECT_EQ(max_size, static_cast<std::size_t>(n));
}

// ---------------------------------------------------------------- Alg. 3 --

TEST(Alg3, ExhaustiveTwoProcessOneRoundLandsInC1) {
  // The step-level generic full-information protocol must only produce
  // configurations that the round-level enumeration predicts.
  std::vector<Config> inits;
  for (std::uint64_t mask = 0; mask < 4; ++mask) {
    inits.push_back(memory::initial_full_info_config(
        {Value(mask & 1), Value((mask >> 1) & 1)}));
  }
  const auto cfgs = memory::enumerate_full_info_configs(inits, 2, 1);
  for (std::uint64_t mask = 0; mask < 4; ++mask) {
    std::vector<Value> xs{Value(mask & 1), Value((mask >> 1) & 1)};
    for (int crashes : {0, 1}) {
      Explorer ex(ExploreOptions{.max_steps = 100, .max_crashes = crashes});
      long count = 0;
      ex.explore(
          [&]() {
            auto sim = std::make_unique<Sim>(2);
            install_full_info_ic(*sim, 1, xs);
            return sim;
          },
          [&](Sim& sim, const std::vector<Choice>&) {
            ++count;
            EXPECT_TRUE(alg4_output_valid(cfgs, tasks::decisions_of(sim)));
          });
      EXPECT_GT(count, 0);
    }
  }
}

TEST(Alg3, ExhaustiveThreeProcessTwoRounds) {
  // Lemma 7.1 over every schedule of n = 3, k = 2 with at most two crashes,
  // for each of the 8 binary inputs. Sleep-set POR keeps one schedule per
  // commutation class, the table visits each distinct final configuration
  // once, and each distinct decision vector is checked against C^2 once.
  std::vector<Config> inits;
  for (std::uint64_t mask = 0; mask < 8; ++mask) {
    std::vector<Value> xs;
    for (int i = 0; i < 3; ++i) xs.emplace_back((mask >> i) & 1);
    inits.push_back(memory::initial_full_info_config(xs));
  }
  const auto cfgs = memory::enumerate_full_info_configs(inits, 3, 2);
  long schedules = 0;
  long finals = 0;
  std::set<Config> decisions;
  for (std::uint64_t mask = 0; mask < 8; ++mask) {
    std::vector<Value> xs;
    for (int i = 0; i < 3; ++i) xs.emplace_back((mask >> i) & 1);
    ExploreOptions opts;
    opts.max_steps = 1000;
    opts.max_crashes = 2;
    opts.tt = std::make_shared<sim::TranspositionTable>(std::size_t{1} << 22);
    opts.por = true;
    schedules += Explorer(opts).explore(
        [&xs] {
          auto sim = std::make_unique<Sim>(3);
          install_full_info_ic(*sim, 2, xs);
          return sim;
        },
        [&](Sim& sim, const std::vector<Choice>&) {
          ++finals;
          for (int i = 0; i < 3; ++i) {
            if (!sim.crashed(i)) {
              EXPECT_TRUE(sim.terminated(i));
            }
          }
          decisions.insert(tasks::decisions_of(sim));
        });
    ASSERT_EQ(opts.tt->stats().drops, 0) << "grow the table";
  }
  EXPECT_EQ(schedules, 166'528);
  EXPECT_EQ(finals, 98'808);
  for (const Config& d : decisions) {
    EXPECT_TRUE(alg4_output_valid(cfgs, d)) << tasks::config_str(d);
  }
}

TEST(Alg3, FullInformationViewsNest) {
  // Round-robin: views grow monotonically in information content; after k
  // rounds each process's view is a depth-k nesting whose own entry is
  // non-⊥ at every level.
  Sim sim(2);
  install_full_info_ic(sim, 3, {Value(7), Value(9)});
  run_round_robin(sim);
  for (int i = 0; i < 2; ++i) {
    Value v = sim.decision(i);
    for (int depth = 0; depth < 3; ++depth) {
      ASSERT_TRUE(v.is_vec());
      ASSERT_FALSE(v.at(static_cast<std::size_t>(i)).is_bottom());
      v = v.at(static_cast<std::size_t>(i));  // descend through my own view
    }
  }
}

// ---------------------------------------------------------------- Alg. 4 --

/// Configuration space for n-process binary inputs, k rounds.
memory::FullInfoConfigs binary_configs(int n, int k) {
  std::vector<Config> inits;
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    std::vector<Value> xs;
    for (int i = 0; i < n; ++i) xs.emplace_back((mask >> i) & 1);
    inits.push_back(memory::initial_full_info_config(xs));
  }
  return memory::enumerate_full_info_configs(inits, n, k);
}

TEST(Alg4, ExhaustiveTwoProcessOneRound) {
  const auto cfgs = binary_configs(2, 1);
  for (std::uint64_t mask = 0; mask < 4; ++mask) {
    const Config init = memory::initial_full_info_config(
        {Value(mask & 1), Value((mask >> 1) & 1)});
    for (int crashes : {0, 1}) {
      auto make = [&]() {
        auto sim = std::make_unique<Sim>(2);
        install_alg4(*sim, cfgs, init);
        return sim;
      };
      ExploreOptions opts;
      opts.max_crashes = crashes;
      opts.max_steps = 100;
      long count = 0;
      Explorer ex(opts);
      ex.explore(make, [&](Sim& sim, const std::vector<Choice>&) {
        ++count;
        // Lemma 7.1: the simulated final views form (a partial view of) a
        // reachable configuration of the full-information IC protocol.
        const Config finals = tasks::decisions_of(sim);
        EXPECT_TRUE(alg4_output_valid(cfgs, finals))
            << tasks::config_str(finals);
        // Theorem 1.4's resource claim: every register is 1 bit.
        for (int r = 0; r < sim.num_registers(); ++r) {
          EXPECT_EQ(sim.register_info(r).width_bits, 1);
        }
        for (int i = 0; i < 2; ++i) {
          if (!sim.crashed(i)) {
            EXPECT_TRUE(sim.terminated(i));
          }
        }
      });
      EXPECT_GT(count, 0);
    }
  }
}

TEST(Alg4, RandomizedTwoProcessTwoRounds) {
  const auto cfgs = binary_configs(2, 2);
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    const Config init = memory::initial_full_info_config(
        {Value(seed & 1), Value((seed >> 1) & 1)});
    Sim sim(2);
    install_alg4(sim, cfgs, init);
    sim::RandomRunOptions opts;
    opts.seed = seed;
    opts.max_crashes = 1;
    const sim::RunReport rep = run_random(sim, opts);
    EXPECT_FALSE(rep.hit_step_limit);
    EXPECT_TRUE(alg4_output_valid(cfgs, tasks::decisions_of(sim)))
        << "seed " << seed;
  }
}

TEST(Alg4, RandomizedThreeProcessOneRound) {
  const auto cfgs = binary_configs(3, 1);
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    std::vector<Value> xs;
    for (int i = 0; i < 3; ++i) xs.emplace_back((seed >> i) & 1);
    const Config init = memory::initial_full_info_config(xs);
    Sim sim(3);
    install_alg4(sim, cfgs, init);
    sim::RandomRunOptions opts;
    opts.seed = seed;
    opts.max_crashes = 2;
    const sim::RunReport rep = run_random(sim, opts);
    EXPECT_FALSE(rep.hit_step_limit);
    EXPECT_TRUE(alg4_output_valid(cfgs, tasks::decisions_of(sim)))
        << "seed " << seed;
  }
}

TEST(Alg4, SoloRunYieldsSoloConfiguration) {
  // p0 running alone must end with views that only ever contain p0.
  const auto cfgs = binary_configs(2, 2);
  const Config init =
      memory::initial_full_info_config({Value(1), Value(0)});
  Sim sim(2);
  install_alg4(sim, cfgs, init);
  sim.crash(1);
  run_round_robin(sim);
  ASSERT_TRUE(sim.terminated(0));
  const Value w = sim.decision(0);
  EXPECT_FALSE(w.at(0).is_bottom());
  EXPECT_TRUE(w.at(1).is_bottom());
  EXPECT_TRUE(alg4_output_valid(cfgs, tasks::decisions_of(sim)));
}

struct Alg4AgreeParams {
  int k;
  std::uint64_t x0;
  std::uint64_t x1;
  int max_crashes;
};

class Alg4Agreement : public ::testing::TestWithParam<Alg4AgreeParams> {};

TEST_P(Alg4Agreement, SolvesEpsAgreementThroughOneBitRegisters) {
  // Theorem 1.4 end-to-end: binary ε-agreement with ε = 3^-k where every
  // coordination register is a single bit.
  const auto p = GetParam();
  static std::map<int, std::unique_ptr<Alg4AgreementPlan>> plans;
  if (!plans.contains(p.k)) {
    plans[p.k] = std::make_unique<Alg4AgreementPlan>(p.k);
  }
  const Alg4AgreementPlan& plan = *plans.at(p.k);
  const tasks::ApproxAgreement task(2, plan.denominator());
  const Config input{Value(p.x0), Value(p.x1)};
  Explorer ex(ExploreOptions{.max_steps = 500, .max_crashes = p.max_crashes});
  long count = 0;
  ex.explore(
      [&]() {
        auto sim = std::make_unique<Sim>(2);
        install_alg4_agreement(*sim, plan, {p.x0, p.x1});
        return sim;
      },
      [&](Sim& sim, const std::vector<Choice>&) {
        ++count;
        const auto check =
            tasks::check_outputs(task, input, tasks::decisions_of(sim));
        EXPECT_TRUE(check.ok) << check.detail;
        // Input registers aside, every register is 1 bit.
        for (int r = 2; r < sim.num_registers(); ++r) {
          EXPECT_EQ(sim.register_info(r).width_bits, 1);
        }
      });
  EXPECT_GT(count, 0);
}

// Exhaustive only for k = 1: at k = 2 each process already takes 19 steps
// and the interleaving space explodes; k = 2 is covered by the randomized
// test below.
INSTANTIATE_TEST_SUITE_P(
    Sweep, Alg4Agreement,
    ::testing::Values(Alg4AgreeParams{1, 0, 1, 0}, Alg4AgreeParams{1, 1, 0, 0},
                      Alg4AgreeParams{1, 1, 1, 0}, Alg4AgreeParams{1, 0, 0, 0},
                      Alg4AgreeParams{1, 0, 1, 1}));

TEST(Alg4Agreement, RandomizedTwoRounds) {
  const Alg4AgreementPlan plan(2);
  const tasks::ApproxAgreement task(2, plan.denominator());
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const std::uint64_t x0 = seed % 2;
    const std::uint64_t x1 = (seed / 2) % 2;
    Sim sim(2);
    install_alg4_agreement(sim, plan, {x0, x1});
    sim::RandomRunOptions opts;
    opts.seed = seed;
    opts.max_crashes = 1;
    const sim::RunReport rep = run_random(sim, opts);
    EXPECT_FALSE(rep.hit_step_limit);
    const Config input{Value(x0), Value(x1)};
    const auto check =
        tasks::check_outputs(task, input, tasks::decisions_of(sim));
    EXPECT_TRUE(check.ok) << check.detail << " seed=" << seed;
  }
}

TEST(Alg4Agreement, PlanGeometry) {
  const Alg4AgreementPlan plan(2);
  EXPECT_EQ(plan.denominator(), 9u);
  // The solo p0 view under inputs (0,1) sits at index 0.
  Config solo = memory::initial_full_info_config({Value(0), Value(1)});
  for (int r = 0; r < 2; ++r) {
    solo = memory::apply_full_info_round(solo, {0b01, 0b11});
  }
  EXPECT_EQ(plan.index_of(0, solo[0], 0, 1), 0u);
  EXPECT_THROW((void)plan.index_of(0, Value(99), 0, 1), UsageError);
}

TEST(Alg4, IterationCountMatchesConfigurationSpace) {
  const auto cfgs = binary_configs(2, 2);
  Sim sim(2);
  const Alg4Handles h = install_alg4(
      sim, cfgs, memory::initial_full_info_config({Value(0), Value(1)}));
  EXPECT_EQ(h.iterations, 16u);  // |C^0| + |C^1| = 4 + 12
  run_round_robin(sim);
  for (int i = 0; i < 2; ++i) {
    // One immediate snapshot per iteration plus the start step.
    EXPECT_EQ(sim.steps(i), static_cast<long>(h.iterations) + 1);
  }
}

}  // namespace
}  // namespace bsr::core
