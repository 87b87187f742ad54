// Figure 2 reproduction: the execution structure of Algorithm 1 (k = 4,
// inputs 0 and 1). The figure shows the chromatic path of final states,
// labelled with the register contents at each state. We regenerate it by
// exhaustively enumerating every execution and grouping final states by
// (iterations, decide line, outputs, registers).
#include <map>
#include <memory>

#include "common.h"
#include "core/alg1.h"
#include "sim/explore.h"

namespace {

using namespace bsr;

void print_figure2() {
  const std::uint64_t k = 4;
  bench::banner(
      "Figure 2 — executions of Algorithm 1 (k=4, inputs 0/1)",
      "final states form a chromatic path; outputs of co-final states are "
      "1/(2k+1) apart; registers alternate with the iteration parity");

  struct Profile {
    long count = 0;
  };
  // Key: (y0, y1, r0, r1, word)
  std::map<std::tuple<std::uint64_t, std::uint64_t, int, int, std::string>,
           Profile>
      profiles;
  // Honors BSR_EXPLORE_THREADS (threads = 0 → resolve from the environment).
  // The diag travels inside each Sim (set_user_data): the parallel engine
  // builds one world per subtree job, so a diag shared across factory calls
  // would be raced on. The visitor mutates the shared maps, so it stays
  // behind the explorer's serialized-visitor adapter.
  sim::Explorer ex(sim::ExploreOptions{.max_steps = 100});
  std::cout << "  explorer threads: "
            << sim::resolve_explore_threads(0) << "\n";
  long total = 0;
  std::uint64_t max_gap = 0;
  ex.explore(
      [&]() {
        auto diag = std::make_shared<core::Alg1Diag>();
        auto sim = std::make_unique<sim::Sim>(2);
        core::install_alg1(*sim, k, {0, 1}, diag.get());
        sim->set_user_data(std::move(diag));
        return sim;
      },
      [&](sim::Sim& sim, const std::vector<sim::Choice>&) {
        ++total;
        const auto* diag = sim.user_data<core::Alg1Diag>();
        const std::uint64_t y0 = sim.decision(0).as_u64();
        const std::uint64_t y1 = sim.decision(1).as_u64();
        max_gap = std::max(max_gap, y0 > y1 ? y0 - y1 : y1 - y0);
        profiles[{y0, y1, diag->iterations[0], diag->iterations[1],
                  sim.register_word({2, 3})}]
            .count += 1;
      });

  bench::Table table({"y1/(2k+1)", "y2/(2k+1)", "r1", "r2", "(R1,R2)",
                      "#executions"});
  std::string outputs;
  for (const auto& [key, prof] : profiles) {
    const auto& [y0, y1, r0, r1, word] = key;
    outputs += "(" + bench::str(y0) + "," + bench::str(y1) + ")";
    table.row({bench::str(y0) + "/9", bench::str(y1) + "/9", bench::str(r0),
               bench::str(r1), word, bench::str(prof.count)});
  }
  table.print();
  bench::expect("total executions", 73'738L, total);
  bench::expect("outcome profiles", std::size_t{9}, profiles.size());
  // The chromatic path of Figure 2, one profile per final state.
  bench::expect<std::string>("profile outputs",
                             "(0,1)(2,1)(2,3)(4,3)(4,5)(6,5)(6,7)(8,7)(8,9)",
                             outputs);
  bench::expect("max |y1-y2| <= 1", true, max_gap <= 1);
  std::cout << "  total executions: " << total
            << ", distinct outcome profiles: " << profiles.size()
            << ", max |y1-y2| (grid steps): " << max_gap << " (paper: <= 1)\n";
}

}  // namespace

int main() {
  print_figure2();
  return bench::exit_status();
}
