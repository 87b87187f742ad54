// Theorem 1.3 reproduction: for t < n/2, every task solvable with unbounded
// registers is solvable with registers of 3(t+1) = O(t) bits. We run the
// full §6 stack (ABD over flooding over alternating-bit links) solving
// ε-agreement, and report per-layer costs. Crucially, the register width
// depends only on t — not on ε or the task.
#include <memory>

#include "common.h"
#include "core/sec6.h"
#include "tasks/approx.h"
#include "tasks/checker.h"

namespace {

using namespace bsr;

struct StackRun {
  bool ok = false;
  long steps = 0;
  int width = 0;
  int registers = 0;
};

StackRun run_stack(int n, int t, int rounds) {
  std::vector<std::uint64_t> inputs;
  tasks::Config cfg;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(static_cast<std::uint64_t>(i % 2));
    cfg.emplace_back(inputs.back());
  }
  sim::Sim sim(n);
  auto result = std::make_shared<core::Sec6Result>(n);
  core::install_register_stack(sim, core::Sec6Options{t, rounds}, inputs,
                               result);
  const auto rep = run_round_robin_until(
      sim, core::Sec6Result::done_predicate(result), 200'000'000);
  StackRun out;
  out.steps = rep.steps;
  out.width = sim.register_info(0).width_bits;
  out.registers = sim.num_registers();
  if (rep.hit_step_limit) return out;
  tasks::Config decided(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (result->decision[static_cast<std::size_t>(i)]) {
      decided[static_cast<std::size_t>(i)] =
          Value(*result->decision[static_cast<std::size_t>(i)]);
    }
  }
  const tasks::ApproxAgreement task(n, std::uint64_t{1} << rounds);
  out.ok = tasks::is_full(decided) &&
           tasks::check_outputs(task, cfg, decided).ok;
  return out;
}

void print_theorem13() {
  bench::banner(
      "Theorem 1.3 — the O(t)-bit register stack (t < n/2)",
      "register width 3(t+1) bits, independent of the task precision; "
      "ε-agreement solved end-to-end through ABD + flooding + ABP");
  bench::Table table({"n", "t", "T (ε=2^-T)", "register bits", "#registers",
                      "sim steps", "solved"});
  for (const auto& [n, t, rounds] :
       std::vector<std::tuple<int, int, int>>{{3, 1, 1},
                                              {3, 1, 2},
                                              {5, 1, 1},
                                              {5, 2, 1},
                                              {5, 2, 2},
                                              {7, 2, 1},
                                              {7, 3, 1}}) {
    const StackRun r = run_stack(n, t, rounds);
    const std::string row = "n=" + bench::str(n) + " t=" + bench::str(t) +
                            " T=" + bench::str(rounds);
    bench::expect(row + " register bits", 3 * (t + 1), r.width);
    bench::expect(row + " #registers", n, r.registers);
    bench::expect(row + " solved", true, r.ok);
    table.row({bench::str(n), bench::str(t), bench::str(rounds),
               bench::str(r.width), bench::str(r.registers),
               bench::str(r.steps), r.ok ? "yes" : "NO"});
  }
  table.print();
  std::cout << "  note: width grows only with t; increasing the precision T "
               "grows steps, never register size\n";
}

void print_precision_independence() {
  bench::banner("Register width vs precision",
                "the same 9-bit registers (n=5, t=2) serve every ε");
  bench::Table table({"T", "1/ε", "register bits", "sim steps", "solved"});
  const long steps[] = {605'500, 1'249'297, 1'910'072};
  for (int rounds : {1, 2, 3}) {
    const StackRun r = run_stack(5, 2, rounds);
    const std::string row = "T=" + bench::str(rounds);
    bench::expect(row + " register bits", 9, r.width);
    bench::expect(row + " sim steps", steps[rounds - 1], r.steps);
    bench::expect(row + " solved", true, r.ok);
    table.row({bench::str(rounds), bench::str(1 << rounds),
               bench::str(r.width), bench::str(r.steps),
               r.ok ? "yes" : "NO"});
  }
  table.print();
}

}  // namespace

int main() {
  print_theorem13();
  print_precision_independence();
  return bench::exit_status();
}
