// Theorem 1.2 reproduction: 1-bit registers are universal for two
// processes. Algorithm 1 solves ε-agreement with Θ(1/ε) steps on 1-bit
// registers; Algorithm 2 solves arbitrary BMZ-solvable tasks with 3 bits of
// coordination per process.
#include <memory>

#include "common.h"
#include "core/alg1.h"
#include "core/alg2.h"
#include "sim/explore.h"
#include "tasks/approx.h"
#include "tasks/checker.h"

namespace {

using namespace bsr;

void print_alg1_scaling() {
  bench::banner("Theorem 1.2 — Algorithm 1 step complexity",
                "ε = 1/(2k+1) with 1-bit registers; worst-case steps Θ(k) "
                "= Θ(1/ε) (the paper's exponential slowdown vs log(1/ε))");
  bench::Table table({"k", "1/ε = 2k+1", "lockstep steps/proc",
                      "bound 2k+3", "R width (bits)"});
  for (std::uint64_t k : {4ull, 16ull, 64ull, 256ull, 1024ull, 4096ull}) {
    sim::Sim sim(2);
    core::install_alg1(sim, k, {0, 1});
    run_round_robin(sim);
    const long steps = sim.steps(0) - 1;  // minus the start step
    const int width = sim.register_info(2).width_bits;
    const std::string row = "k=" + bench::str(k);
    bench::expect(row + " lockstep steps/proc", static_cast<long>(2 * k + 3),
                  steps);
    bench::expect(row + " R width (bits)", 1, width);
    table.row({bench::str(k), bench::str(2 * k + 1), bench::str(steps),
               bench::str(2 * k + 3), bench::str(width)});
  }
  table.print();
}

void print_alg2_demo() {
  bench::banner("Theorem 1.2 — Algorithm 2 universality (3-bit registers)",
                "any BMZ-solvable 2-process task is solved with 3 bits of "
                "coordination state per process");
  // The exhaustive check below honors BSR_EXPLORE_THREADS (threads = 0 →
  // resolve from the environment); the legality visitor only flips a flag,
  // and the serialized-visitor adapter keeps it safe either way.
  std::cout << "  explorer threads: " << sim::resolve_explore_threads(0)
            << "\n";
  bench::Table table({"task", "path length L", "inputs", "executions checked",
                      "all legal"});
  // The task 1/m and its execution count, as EXPERIMENTS.md quotes it.
  for (const auto& [m, want] : std::vector<std::pair<std::uint64_t, long>>{
           {3, 113'226}, {5, 533'130}, {7, 2'212'746}}) {
    const tasks::ApproxAgreement aa(2, m);
    std::vector<Value> domain;
    for (std::uint64_t v = 0; v <= m; ++v) domain.emplace_back(v);
    const tasks::ExplicitTask task = tasks::materialize(aa, domain);
    const topo::Bmz2 bmz(task);
    const topo::Bmz2Plan& plan = bmz.plan();
    {
      const tasks::Config input{Value(0), Value(1)};
      long execs = 0;
      bool all_legal = true;
      sim::Explorer ex(sim::ExploreOptions{.max_steps = 400});
      ex.explore(
          [&]() {
            auto sim = std::make_unique<sim::Sim>(2);
            core::install_alg2(*sim, plan, input);
            return sim;
          },
          [&](sim::Sim& sim, const std::vector<sim::Choice>&) {
            ++execs;
            all_legal &= tasks::check_outputs(task, input,
                                              tasks::decisions_of(sim))
                             .ok;
          });
      const std::string row = "m=" + bench::str(m);
      bench::expect(row + " path length L", static_cast<int>(m) + 2, plan.L);
      bench::expect(row + " executions checked", want, execs);
      bench::expect(row + " all legal", true, all_legal);
      table.row({task.name(), bench::str(plan.L), tasks::config_str(input),
                 bench::str(execs), all_legal ? "yes" : "NO"});
    }
  }
  table.print();
}

}  // namespace

int main() {
  print_alg1_scaling();
  print_alg2_demo();
  return bench::exit_status();
}
