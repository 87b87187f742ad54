// Figure 1 reproduction: the universality phase map of the t-resilient
// shared-memory model with bounded registers.
//
//   t < n/2  — universal with O(t)-bit registers (Theorem 1.3): we *run*
//              the §6 register stack and report success + measured width;
//   t > n/2  — not universal (Theorem 1.1): we report the pigeonhole
//              threshold k(n,t,1) beyond which ε-agreement is unsolvable,
//              and for n = 3 exhibit the concrete footprint collision;
//   n = 2    — 1-bit registers universal (Theorem 1.2, Algorithm 1);
//   t = n/2  — open problem (paper §9).
//
// Each verdict is checked against the one the paper's formulas predict:
// 3(t+1) bits for t < n/2, k(n,t,1) = 2·2^{n−t+1} + 1 for t > n/2.
#include <memory>

#include "common.h"
#include "core/alg1.h"
#include "core/sec4.h"
#include "core/sec6.h"

namespace {

using namespace bsr;

std::string classify(int n, int t) {
  if (n == 2) {
    // Theorem 1.2: verify by running Algorithm 1 in lockstep.
    sim::Sim sim(2);
    core::install_alg1(sim, 8, {0, 1});
    run_round_robin(sim);
    return sim.terminated(0) && sim.terminated(1) ? "universal @1 bit" : "??";
  }
  if (2 * t < n) {
    // Theorem 1.3: run the full register stack once.
    sim::Sim sim(n);
    auto result = std::make_shared<core::Sec6Result>(n);
    std::vector<std::uint64_t> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(i % 2);
    core::install_register_stack(sim, core::Sec6Options{t, 1}, inputs, result);
    const auto rep = run_round_robin_until(
        sim, core::Sec6Result::done_predicate(result), 50'000'000);
    if (rep.hit_step_limit) return "stack stalled?";
    return "universal @" + std::to_string(sim.register_info(0).width_bits) +
           " bits";
  }
  if (2 * t > n) {
    // Theorem 1.1: unsolvable past the pigeonhole threshold.
    return "NOT universal (k>=" +
           std::to_string(core::impossibility_threshold(n, t, 1)) + " @1 bit)";
  }
  return "t = n/2: open";
}

/// The verdict the paper predicts for (n, t), from its closed forms.
std::string predicted(int n, int t) {
  if (n == 2) return "universal @1 bit";
  if (2 * t < n) return "universal @" + std::to_string(3 * (t + 1)) + " bits";
  if (2 * t > n) {
    return "NOT universal (k>=" +
           std::to_string(2 * (std::uint64_t{1} << (n - t + 1)) + 1) +
           " @1 bit)";
  }
  return "t = n/2: open";
}

void print_figure1() {
  bench::banner("Figure 1 — universality phase map",
                "bounded registers universal iff t < n/2 (O(t) bits); "
                "1-bit registers for n = 2; open at t = n/2");
  bench::Table table({"n", "t", "regime", "verdict (measured)"});
  for (int n = 2; n <= 7; ++n) {
    for (int t = 1; t < n; ++t) {
      if (n == 2 && t != 1) continue;
      const std::string regime = n == 2          ? "n=2"
                                 : 2 * t < n     ? "t < n/2"
                                 : 2 * t == n    ? "t = n/2"
                                                 : "t > n/2";
      const std::string verdict = classify(n, t);
      bench::expect("n=" + bench::str(n) + " t=" + bench::str(t),
                    predicted(n, t), verdict);
      table.row({bench::str(n), bench::str(t), regime, verdict});
    }
  }
  table.print();

  const auto c = core::find_footprint_collision(5);
  bench::expect("witness found", true, c.has_value());
  if (c) {
    const std::string a = "{" + bench::str(c->outputs_a[0]) + "," +
                          bench::str(c->outputs_a[1]) + "}";
    const std::string b = "{" + bench::str(c->outputs_b[0]) + "," +
                          bench::str(c->outputs_b[1]) + "}";
    bench::expect<std::string>("witness footprint", "0|1|1|0|", c->word);
    bench::expect<std::string>("witness outputs A", "{0,1}", a);
    bench::expect<std::string>("witness outputs B", "{2,3}", b);
    std::cout << "  witness (n=3, t=2, 1-bit coordination): footprint '"
              << c->word << "' reached with outputs " << a << "/11 and "
              << b << "/11 — no third-process rule "
              << "can be within 1 grid step of both\n";
  }
}

}  // namespace

int main() {
  print_figure1();
  return bench::exit_status();
}
