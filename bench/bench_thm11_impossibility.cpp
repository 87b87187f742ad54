// Theorem 1.1 / Proposition 4.1 reproduction: when t > n/2, bounded
// registers cannot solve ε-agreement below the pigeonhole threshold
// k(n, t, s) = 2(2^s)^{n−t+1} + 1. We print the threshold table, then run
// the proof's adversary against Algorithm-1-based early groups: exhibit the
// footprint collision and the end-to-end violating execution.
#include <memory>

#include "common.h"
#include "core/alg1.h"
#include "core/sec4.h"
#include "tasks/approx.h"
#include "tasks/checker.h"
#include "topo/protocol_graph.h"

namespace {

using namespace bsr;

void print_threshold_table() {
  bench::banner("Theorem 1.1 — pigeonhole thresholds k(n, t, s)",
                "for t > n/2 and s-bit registers, ε-agreement with "
                "1/ε >= k(n,t,s) is unsolvable; k = 2(2^s)^{n-t+1} + 1");
  bench::Table table({"n", "t", "s (bits)", "footprint words", "k(n,t,s)"});
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{
           {3, 2}, {4, 3}, {5, 3}, {5, 4}, {6, 4}, {7, 4}}) {
    for (int s : {1, 2, 4}) {
      const std::uint64_t k = core::impossibility_threshold(n, t, s);
      const std::uint64_t words = std::uint64_t{1} << (s * (n - t + 1));
      bench::expect("n=" + bench::str(n) + " t=" + bench::str(t) +
                        " s=" + bench::str(s) + " k(n,t,s)",
                    2 * words + 1, k);
      table.row({bench::str(n), bench::str(t), bench::str(s),
                 bench::str((k - 1) / 2), bench::str(k)});
    }
  }
  table.print();
}

void print_collision_demo() {
  bench::banner("Adversary run (n = 3, t = 2, wait-free)",
                "two executions of the early group leave identical register "
                "footprints with outputs >= 2 grid steps apart; every "
                "completion for the late process violates ε-agreement");
  bench::Table table({"k", "grid 1/ε", "executions searched", "footprint",
                      "outputs A", "outputs B", "all rules refuted"});
  for (std::uint64_t k : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    const auto c = core::find_footprint_collision(k);
    const std::string row = "k=" + bench::str(k);
    bench::expect(row + " collision found", true, c.has_value());
    if (!c) {
      table.row({bench::str(k), bench::str(2 * k + 1), "-", "(none)", "-",
                 "-", "-"});
      continue;
    }
    bool all_refuted = true;
    for (std::uint64_t d = 0; d <= 2 * k + 1; ++d) {
      const auto r = core::refute_completion_rule(
          *c, [d](const std::string&) { return d; });
      all_refuted &= (r.violates_a || r.violates_b);
    }
    bench::expect(row + " all rules refuted", true, all_refuted);
    const std::string a = "{" + bench::str(c->outputs_a[0]) + "," +
                          bench::str(c->outputs_a[1]) + "}";
    const std::string b = "{" + bench::str(c->outputs_b[0]) + "," +
                          bench::str(c->outputs_b[1]) + "}";
    if (k == 5) {  // the instance EXPERIMENTS.md quotes
      bench::expect(row + " executions searched", 295'178L,
                    c->executions_searched);
      bench::expect<std::string>(row + " footprint", "0|1|1|0|", c->word);
      bench::expect<std::string>(row + " outputs A", "{0,1}", a);
      bench::expect<std::string>(row + " outputs B", "{2,3}", b);
    }
    table.row({bench::str(k), bench::str(2 * k + 1),
               bench::str(c->executions_searched), c->word, a, b,
               all_refuted ? "yes" : "NO"});
  }
  table.print();

  // One end-to-end violating execution, checked against the task.
  const auto c = core::find_footprint_collision(5);
  if (c) {
    const std::uint64_t denom = 2 * c->k + 1;
    const auto mid = [denom](const std::string&) { return denom / 2; };
    const auto r = core::refute_completion_rule(*c, mid);
    const tasks::Config out =
        core::run_violation(*c, r.violates_a, mid);
    const tasks::ApproxAgreement task(3, denom);
    const tasks::Config in{Value(0), Value(1), Value(0)};
    const auto check = tasks::check_outputs(task, in, out);
    bench::expect<std::string>("end-to-end outputs", "(0, 1, 5)",
                               tasks::config_str(out));
    bench::expect("end-to-end run violates ε-agreement", false, check.ok);
    std::cout << "  end-to-end run with midpoint rule: outputs "
              << tasks::config_str(out) << "/" << denom << " -> "
              << (check.ok ? "LEGAL (unexpected!)" : "ε-agreement violated ✓")
              << "\n";
  }
}

void print_decision_paths() {
  bench::banner(
      "§3.1 — the decision graph of the early group",
      "final states form a path between the solo decisions whose length is "
      ">= 1/ε; with s-bit registers only 2^{2s} footprints exist along it — "
      "the pigeonhole");
  bench::Table table({"k", "1/ε = 2k+1", "path?", "solo distance",
                      "vertices"});
  for (std::uint64_t k : {1ull, 2ull, 3ull}) {
    const topo::DecisionGraph g = topo::build_decision_graph([k]() {
      auto sim = std::make_unique<bsr::sim::Sim>(2);
      core::install_alg1(*sim, k, {0, 1});
      return sim;
    });
    const topo::DecisionVertex solo0{0, Value(0)};
    const topo::DecisionVertex solo1{1, Value(2 * k + 1)};
    const std::string row = "k=" + bench::str(k);
    bench::expect(row + " path", true, g.is_path());
    bench::expect(row + " solo distance", static_cast<long>(2 * k + 1),
                  g.distance(solo0, solo1));
    bench::expect(row + " vertices = edges + 1", g.edge_count() + 1,
                  g.vertex_count());
    table.row({bench::str(k), bench::str(2 * k + 1),
               g.is_path() ? "yes" : "NO",
               bench::str(g.distance(solo0, solo1)),
               bench::str(g.vertex_count())});
  }
  table.print();
}

}  // namespace

int main() {
  print_threshold_table();
  print_decision_paths();
  print_collision_demo();
  return bench::exit_status();
}
