// Lemma 2.2 baseline: wait-free n-process ε-agreement with unbounded
// registers (iterated immediate-snapshot averaging) — the positive side the
// paper's impossibility is measured against, with the optimal Θ(log 1/ε)
// step complexity and register contents that grow with the precision
// (exactly what the bounded-register model forbids).
#include "common.h"
#include "core/baseline.h"
#include "sim/sched.h"
#include "tasks/approx.h"
#include "tasks/checker.h"

namespace {

using namespace bsr;

void print_baseline() {
  bench::banner(
      "Lemma 2.2 — unbounded-register ε-agreement (IIS averaging)",
      "T rounds give ε = 2^-T with T steps per process (Θ(log 1/ε)); the "
      "written values need T+1 bits — register content grows with 1/ε");
  bench::Table table({"n", "T", "1/ε", "steps/proc", "max value bits",
                      "agreement OK"});
  for (const auto& [n, T] : std::vector<std::pair<int, int>>{
           {2, 4}, {2, 10}, {4, 4}, {4, 10}, {8, 10}, {8, 20}, {16, 20}}) {
    std::vector<std::uint64_t> inputs;
    tasks::Config cfg;
    for (int i = 0; i < n; ++i) {
      inputs.push_back(static_cast<std::uint64_t>(i % 2));
      cfg.emplace_back(inputs.back());
    }
    sim::Sim sim(n);
    core::install_unbounded_agreement(sim, T, inputs);
    run_round_robin(sim);
    int max_bits = 0;
    bool all_done = true;
    for (int i = 0; i < n; ++i) all_done &= sim.terminated(i);
    for (int r = 0; r < sim.num_registers(); ++r) {
      const Value& v = sim.peek(r);
      if (v.is_u64()) max_bits = std::max(max_bits, v.bit_width());
    }
    const tasks::ApproxAgreement task(n, std::uint64_t{1} << T);
    const bool ok =
        all_done &&
        tasks::check_outputs(task, cfg, tasks::decisions_of(sim)).ok;
    const long steps = sim.steps(0) - 1;
    const std::string row = "n=" + bench::str(n) + " T=" + bench::str(T);
    bench::expect(row + " steps/proc", static_cast<long>(T), steps);
    bench::expect(row + " max value bits", T + 1, max_bits);
    bench::expect(row + " agreement OK", true, ok);
    table.row({bench::str(n), bench::str(T),
               bench::str(std::uint64_t{1} << T), bench::str(steps),
               bench::str(max_bits), ok ? "yes" : "NO"});
  }
  table.print();
  std::cout << "  contrast: Theorem 1.1 shows no bounded width works for all "
               "ε once t > n/2; Theorem 1.3's stack pins width at 3(t+1) "
               "for t < n/2\n";
}

}  // namespace

int main() {
  print_baseline();
  return bench::exit_status();
}
