// Algorithm 5's output predicate, shared by the sampled and the exhaustive
// §7 suites (tests/sec7_test.cpp, tests/sec7_slow_test.cpp).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "memory/iis.h"
#include "sim/sim.h"

namespace bsr::test {

/// Process i's input to Algorithm 5: 100 + i.
inline std::vector<Value> alg5_inputs(int n) {
  std::vector<Value> xs;
  for (int i = 0; i < n; ++i) {
    xs.emplace_back(static_cast<std::uint64_t>(100 + i));
  }
  return xs;
}

/// Every alive process decided, and the decided snapshots satisfy the
/// immediate-snapshot properties: validity, self-containment, inclusion
/// (§7 preliminaries).
inline void check_alg5_outputs(const sim::Sim& sim, int n) {
  const std::vector<Value> xs = alg5_inputs(n);
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
  EXPECT_TRUE(memory::check_is_properties(xs, views, decided));
}

}  // namespace bsr::test
