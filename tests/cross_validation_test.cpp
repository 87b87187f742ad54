// Cross-validation between the two levels of the library: the *round-level*
// combinatorial models (IC outcomes, IS ordered partitions) must coincide
// with what the *step-level* simulator actually produces under exhaustive
// scheduling. This pins the abstractions of §7 to the executable model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <set>

#include "memory/ic.h"
#include "memory/iis.h"
#include "sim/explore.h"

namespace bsr {
namespace {

using memory::IcOutcome;
using sim::Choice;
using sim::Sim;

/// Runs one IC round at step level: every process writes its pid+1 to its
/// register of a fresh memory, then reads all n registers one by one.
/// Returns the view masks of one execution.
std::unique_ptr<Sim> make_ic_round(int n) {
  auto sim = std::make_unique<Sim>(n);
  std::vector<int> regs;
  for (int i = 0; i < n; ++i) {
    regs.push_back(sim->add_register("M" + std::to_string(i), i,
                                     sim::kUnbounded, Value()));
  }
  for (int i = 0; i < n; ++i) {
    sim->spawn(i, [i, regs, n](sim::Env& env) -> sim::Proc {
      co_await env.write(regs[static_cast<std::size_t>(i)],
                         Value(static_cast<std::uint64_t>(i) + 1));
      std::uint64_t mask = 0;
      for (int j = 0; j < n; ++j) {
        const sim::OpResult got =
            co_await env.read(regs[static_cast<std::size_t>(j)]);
        if (!got.value.is_bottom()) mask |= 1u << j;
      }
      co_return Value(mask);
    });
  }
  return sim;
}

class IcCross : public ::testing::TestWithParam<int> {};

TEST_P(IcCross, StepLevelOutcomesAreASubsetOfTheEnumeration) {
  // With a *fixed* per-process read order, every reachable outcome must be
  // among the enumerated IC outcomes (soundness). Not all outcomes are
  // reachable with one read order — the model allows arbitrary orders; the
  // completeness direction is the witness test below.
  const int n = GetParam();
  std::set<IcOutcome> observed;
  sim::Explorer ex(sim::ExploreOptions{.max_steps = 200});
  ex.explore(
      [&]() { return make_ic_round(n); },
      [&](Sim& sim, const std::vector<Choice>&) {
        IcOutcome oc(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          oc[static_cast<std::size_t>(i)] =
              static_cast<std::uint32_t>(sim.decision(i).as_u64());
        }
        observed.insert(oc);
      });
  const auto predicted_vec = memory::all_ic_outcomes(n);
  const std::set<IcOutcome> predicted(predicted_vec.begin(),
                                      predicted_vec.end());
  for (const IcOutcome& oc : observed) {
    EXPECT_TRUE(predicted.contains(oc)) << "unpredicted IC outcome";
  }
  if (n == 2) {
    // For two processes a single read exists, so order is irrelevant:
    // the sets coincide exactly.
    EXPECT_EQ(observed, predicted);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IcCross, ::testing::Values(2, 3));

TEST(IcCross, EveryEnumeratedOutcomeHasAStepLevelWitness) {
  // Completeness (the constructive direction of Lemma 7.2): for every
  // enumerated outcome we build a schedule — a write order in which each
  // process reads its unseen registers right after its own write (before
  // those writes happen) and its seen registers at the end — and replay it
  // at step level, checking the realized masks.
  const int n = 3;
  for (const IcOutcome& oc : memory::all_ic_outcomes(n)) {
    // Recover a consistent write order greedily (as in is_valid_ic_outcome).
    std::vector<int> order;
    {
      std::vector<int> remaining{0, 1, 2};
      while (!remaining.empty()) {
        bool placed = false;
        for (std::size_t idx = 0; idx < remaining.size(); ++idx) {
          const int cand = remaining[idx];
          const bool ok = std::all_of(
              remaining.begin(), remaining.end(), [&](int j) {
                return j == cand ||
                       (oc[static_cast<std::size_t>(j)] & (1u << cand)) != 0;
              });
          if (ok) {
            order.push_back(cand);
            remaining.erase(remaining.begin() +
                            static_cast<std::ptrdiff_t>(idx));
            placed = true;
            break;
          }
        }
        ASSERT_TRUE(placed) << "invalid outcome from all_ic_outcomes";
      }
    }

    // Per-process read order: unseen registers first, then seen ones.
    Sim sim(n);
    std::vector<int> regs;
    for (int i = 0; i < n; ++i) {
      regs.push_back(sim.add_register("M" + std::to_string(i), i,
                                      sim::kUnbounded, Value()));
    }
    std::array<std::vector<int>, 3> read_order;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if ((oc[static_cast<std::size_t>(i)] & (1u << j)) == 0) {
          read_order[static_cast<std::size_t>(i)].push_back(j);
        }
      }
      for (int j = 0; j < n; ++j) {
        if ((oc[static_cast<std::size_t>(i)] & (1u << j)) != 0) {
          read_order[static_cast<std::size_t>(i)].push_back(j);
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      sim.spawn(i, [i, regs, n, ro = read_order[static_cast<std::size_t>(i)]](
                       sim::Env& env) -> sim::Proc {
        co_await env.write(regs[static_cast<std::size_t>(i)],
                           Value(static_cast<std::uint64_t>(i) + 1));
        std::uint64_t mask = 0;
        for (int j : ro) {
          const sim::OpResult got =
              co_await env.read(regs[static_cast<std::size_t>(j)]);
          if (!got.value.is_bottom()) mask |= 1u << j;
        }
        (void)n;
        co_return Value(mask);
      });
    }
    for (int i = 0; i < n; ++i) sim.step(i);  // starts
    // Writes in order; unseen reads immediately after each own write.
    for (int who : order) {
      sim.step(who);  // write
      const int unseen =
          n - std::popcount(oc[static_cast<std::size_t>(who)]);
      for (int k = 0; k < unseen; ++k) sim.step(who);
    }
    // Then everyone finishes its seen reads.
    run_round_robin(sim);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(sim.terminated(i));
      EXPECT_EQ(static_cast<std::uint32_t>(sim.decision(i).as_u64()),
                oc[static_cast<std::size_t>(i)])
          << "witness failed for process " << i;
    }
  }
}

TEST(IsCross, StepLevelBlocksEqualOrderedPartitions) {
  // Immediate-snapshot rounds: drive the step-level simulator through each
  // ordered partition with step_block and check the views equal the
  // round-level is_round_views prediction.
  const int n = 3;
  std::vector<Value> written;
  for (int i = 0; i < n; ++i) {
    written.emplace_back(static_cast<std::uint64_t>(10 + i));
  }
  const std::vector<sim::Pid> pids{0, 1, 2};
  for (const memory::OrderedPartition& part :
       memory::all_ordered_partitions(pids)) {
    Sim sim(n);
    std::vector<int> regs;
    for (int i = 0; i < n; ++i) {
      regs.push_back(sim.add_register("M" + std::to_string(i), i,
                                      sim::kUnbounded, Value()));
    }
    for (int i = 0; i < n; ++i) {
      sim.spawn(i, [i, regs, &written](sim::Env& env) -> sim::Proc {
        const sim::OpResult snap = co_await env.write_snapshot(
            regs[static_cast<std::size_t>(i)],
            written[static_cast<std::size_t>(i)], regs);
        co_return snap.value;
      });
    }
    for (int i = 0; i < n; ++i) sim.step(i);  // starts
    for (const memory::Block& block : part) sim.step_block(block);

    const auto predicted = memory::is_round_views(written, part, n);
    for (int i = 0; i < n; ++i) {
      const auto& got = sim.decision(i).as_vec();
      const auto& want = predicted[static_cast<std::size_t>(i)];
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got[j], want[j]) << "partition view mismatch at pid " << i;
      }
    }
  }
}

TEST(IsCross, SequentialWriteSnapshotsAreSingletonBlocks) {
  // Stepping WriteSnap ops one at a time equals the ordered partition of
  // singletons in execution order.
  const int n = 3;
  Sim sim(n);
  std::vector<int> regs;
  for (int i = 0; i < n; ++i) {
    regs.push_back(sim.add_register("M" + std::to_string(i), i,
                                    sim::kUnbounded, Value()));
  }
  for (int i = 0; i < n; ++i) {
    sim.spawn(i, [i, regs](sim::Env& env) -> sim::Proc {
      const sim::OpResult snap = co_await env.write_snapshot(
          regs[static_cast<std::size_t>(i)],
          Value(static_cast<std::uint64_t>(i) + 1), regs);
      co_return snap.value;
    });
  }
  for (int i = 0; i < n; ++i) sim.step(i);
  // Execution order 2, 0, 1.
  sim.step(2);
  sim.step(0);
  sim.step(1);
  const std::vector<Value> written{Value(1), Value(2), Value(3)};
  const auto predicted =
      memory::is_round_views(written, {{2}, {0}, {1}}, n);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(sim.decision(i).as_vec(), predicted[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace bsr
