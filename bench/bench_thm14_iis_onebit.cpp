// Theorem 1.4 reproduction: any task solvable in the IIS model with
// unbounded registers is solvable with 1-bit registers (per iteration).
// We run Algorithm 4 (the 1-bit simulation of the full-information IC
// protocol) and report the configuration-space blow-up (unbounded views →
// iteration indices) plus output validity, and Algorithm 5 (Borowsky–Gafni
// snapshot in IC) statistics.
#include <memory>

#include "common.h"
#include "core/sec7.h"
#include "memory/iis.h"
#include "sim/sched.h"
#include "tasks/checker.h"

namespace {

using namespace bsr;

memory::FullInfoConfigs binary_configs(int n, int k) {
  std::vector<tasks::Config> inits;
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    std::vector<Value> xs;
    for (int i = 0; i < n; ++i) xs.emplace_back((mask >> i) & 1);
    inits.push_back(memory::initial_full_info_config(xs));
  }
  return memory::enumerate_full_info_configs(inits, n, k);
}

void print_alg4_table() {
  bench::banner(
      "Theorem 1.4 — Algorithm 4: full-information IC in 1-bit IIS",
      "one iterated memory per reachable configuration; every register is "
      "1 bit; simulated outputs always lie in C^k (validity over random "
      "schedules)");
  bench::Table table({"n", "k", "|C^0..C^k|", "iterations N", "1-bit regs",
                      "steps/proc", "valid runs"});
  for (const auto& [n, k] : std::vector<std::pair<int, int>>{
           {2, 1}, {2, 2}, {2, 3}, {3, 1}, {3, 2}}) {
    const auto cfgs = binary_configs(n, k);
    const std::string row = "n=" + bench::str(n) + " k=" + bench::str(k);
    // |C^0| = 2^n binary inputs; each round multiplies by the one-round IC
    // outcomes (3 at n = 2, 25 at n = 3: Figure 4's census).
    std::size_t level_size = std::size_t{1} << n;
    std::size_t iterations = 0;
    std::string sizes;
    for (std::size_t r = 0; r < cfgs.per_round.size(); ++r) {
      const std::size_t size = cfgs.per_round[r].size();
      bench::expect(row + " |C^" + bench::str(r) + "|", level_size, size);
      if (static_cast<int>(r) < k) iterations += size;
      level_size *= n == 2 ? 3 : 25;
      sizes += std::to_string(size) + " ";
    }
    bench::expect(row + " levels", static_cast<std::size_t>(k + 1),
                  cfgs.per_round.size());
    bench::expect(row + " iterations N = |C^0|+…+|C^{k-1}|", iterations,
                  cfgs.flat.size());
    long valid = 0;
    const long trials = 40;
    long steps = 0;
    for (long seed = 0; seed < trials; ++seed) {
      std::vector<Value> xs;
      for (int i = 0; i < n; ++i) {
        xs.emplace_back(static_cast<std::uint64_t>((seed >> i) & 1));
      }
      sim::Sim sim(n);
      core::install_alg4(sim, cfgs, memory::initial_full_info_config(xs));
      sim::RandomRunOptions opts;
      opts.seed = static_cast<std::uint64_t>(seed);
      opts.max_crashes = n - 1;
      run_random(sim, opts);
      if (seed == 0) {  // N·n registers, every one of them 1 bit
        int widest = 0;
        for (int reg = 0; reg < sim.num_registers(); ++reg) {
          widest = std::max(widest, sim.register_info(reg).width_bits);
        }
        bench::expect(row + " 1-bit regs",
                      cfgs.flat.size() * static_cast<std::size_t>(n),
                      static_cast<std::size_t>(sim.num_registers()));
        bench::expect(row + " widest register (bits)", 1, widest);
      }
      valid += core::alg4_output_valid(cfgs, tasks::decisions_of(sim)) ? 1 : 0;
      steps = std::max(steps, sim.steps(0));
    }
    bench::expect(row + " valid runs", trials, valid);
    table.row({bench::str(n), bench::str(k), sizes,
               bench::str(cfgs.flat.size()),
               bench::str(cfgs.flat.size() * static_cast<std::size_t>(n)),
               bench::str(steps), bench::str(valid) + "/" +
                                      bench::str(trials)});
  }
  table.print();
  std::cout << "  note: the price of 1-bit registers is the iteration count "
               "N = |C^0|+…+|C^{k-1}| (the unbounded values moved into the "
               "memory index)\n";
}

void print_alg4_agreement_table() {
  bench::banner(
      "Theorem 1.4 end-to-end — ε-agreement through 1-bit IIS registers",
      "the C^k complex is the 3^k chromatic path; the §8.1 rule on path "
      "indices decides ε = 3^-k agreement");
  bench::Table table({"k", "1/ε = 3^k", "iterations N", "1-bit regs",
                      "decisions (x=0,1)", "|y0-y1| <= 1"});
  for (int k : {1, 2, 3}) {
    const core::Alg4AgreementPlan plan(k);
    sim::Sim sim(2);
    core::install_alg4_agreement(sim, plan, {0, 1});
    run_round_robin(sim);
    const std::uint64_t y0 = sim.decision(0).as_u64();
    const std::uint64_t y1 = sim.decision(1).as_u64();
    const std::string row = "k=" + bench::str(k);
    std::uint64_t three_k = 1;
    for (int i = 0; i < k; ++i) three_k *= 3;
    bench::expect(row + " 1/ε = 3^k", three_k, plan.denominator());
    const bool agree = (y0 > y1 ? y0 - y1 : y1 - y0) <= 1;
    bench::expect(row + " |y0-y1| <= 1", true, agree);
    table.row({bench::str(k), bench::str(plan.denominator()),
               bench::str(plan.configs().flat.size()),
               bench::str(plan.configs().flat.size() * 2),
               bench::str(y0) + ", " + bench::str(y1),
               agree ? "yes" : "NO"});
  }
  table.print();
}

void print_alg5_table() {
  bench::banner("Proposition 7.2 — Algorithm 5 (BG snapshot in IC)",
                "one IS round from n write/collect iterations; snapshots "
                "satisfy validity, self-containment, inclusion");
  bench::Table table({"n", "runs", "IS properties hold"});
  for (int n : {2, 3, 4, 5}) {
    long ok = 0;
    const long trials = 60;
    for (long seed = 0; seed < trials; ++seed) {
      std::vector<Value> xs;
      for (int i = 0; i < n; ++i) {
        xs.emplace_back(static_cast<std::uint64_t>(100 + i));
      }
      sim::Sim sim(n);
      core::install_alg5(sim, xs);
      sim::RandomRunOptions opts;
      opts.seed = static_cast<std::uint64_t>(seed);
      opts.max_crashes = n - 1;
      run_random(sim, opts);
      std::vector<sim::Pid> decided;
      std::vector<std::vector<Value>> views(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        if (sim.terminated(i)) {
          decided.push_back(i);
          views[static_cast<std::size_t>(i)] = sim.decision(i).as_vec();
        }
      }
      ok += memory::check_is_properties(xs, views, decided) ? 1 : 0;
    }
    bench::expect("n=" + bench::str(n) + " IS properties hold", trials, ok);
    table.row({bench::str(n), bench::str(trials),
               bench::str(ok) + "/" + bench::str(trials)});
  }
  table.print();
}

}  // namespace

int main() {
  print_alg4_table();
  print_alg4_agreement_table();
  print_alg5_table();
  return bench::exit_status();
}
