// Figure 4 reproduction: the protocol complex of the 2-process IS model is
// a path that triples every round (3^r executions / 3^r+1 final states
// after r rounds), plus the one-round outcome censuses for more processes
// (ordered partitions / Fubini numbers) and the IC-vs-IS gap of §7.
#include <functional>
#include <set>

#include "common.h"
#include "memory/ic.h"
#include "memory/iis.h"
#include "topo/labelling.h"

namespace {

using namespace bsr;

std::uint64_t pow3(int r) {
  std::uint64_t p = 1;
  for (int i = 0; i < r; ++i) p *= 3;
  return p;
}

void print_figure4() {
  bench::banner("Figure 4 — 2-process IS executions per round",
                "each edge subdivides in three: 3^r executions, 3^r + 1 "
                "final states after r rounds");

  bench::Table table({"r", "executions (measured)", "3^r", "labels (measured)",
                      "3^r + 1"});
  for (int r = 1; r <= 7; ++r) {
    // Enumerate executions through the labelling protocol (which the tests
    // prove is injective on final states).
    long execs = 0;
    std::set<std::uint64_t> labels;
    std::function<void(topo::LabellingProcess, topo::LabellingProcess, int)>
        rec = [&](topo::LabellingProcess a, topo::LabellingProcess b,
                  int depth) {
          if (depth == r) {
            ++execs;
            labels.insert(a.pos());
            labels.insert(b.pos());
            return;
          }
          const int b0 = a.write_bit();
          const int b1 = b.write_bit();
          for (int oc = 0; oc < 3; ++oc) {
            topo::LabellingProcess a2 = a;
            topo::LabellingProcess b2 = b;
            a2.observe(oc == 0 ? std::nullopt : std::optional<int>(b1));
            b2.observe(oc == 1 ? std::nullopt : std::optional<int>(b0));
            rec(a2, b2, depth + 1);
          }
        };
    rec(topo::LabellingProcess(0), topo::LabellingProcess(1), 0);
    const std::string row = "r=" + bench::str(r);
    bench::expect(row + " executions", static_cast<long>(pow3(r)), execs);
    bench::expect(row + " labels", pow3(r) + 1, labels.size());
    table.row({bench::str(r), bench::str(execs), bench::str(pow3(r)),
               bench::str(labels.size()), bench::str(pow3(r) + 1)});
  }
  table.print();

  bench::banner("One-round outcome censuses",
                "IS rounds = ordered partitions (Fubini numbers); IC rounds "
                "are strictly more numerous for n >= 3 (§7)");
  bench::Table census({"n", "IS outcomes", "Fubini(n)", "IC outcomes"});
  const std::size_t fubini[] = {3, 13, 75};
  const std::size_t ic[] = {3, 25, 543};
  for (int n = 2; n <= 4; ++n) {
    std::vector<sim::Pid> pids;
    for (int i = 0; i < n; ++i) pids.push_back(i);
    const std::size_t is_outcomes = memory::all_ordered_partitions(pids).size();
    const std::size_t ic_outcomes = memory::all_ic_outcomes(n).size();
    const std::string row = "n=" + bench::str(n);
    bench::expect(row + " IS outcomes", fubini[n - 2], is_outcomes);
    bench::expect(row + " Fubini(n)", fubini[n - 2],
                  memory::ordered_partition_count(n));
    bench::expect(row + " IC outcomes", ic[n - 2], ic_outcomes);
    census.row({bench::str(n), bench::str(is_outcomes),
                bench::str(memory::ordered_partition_count(n)),
                bench::str(ic_outcomes)});
  }
  census.print();
}

}  // namespace

int main() {
  print_figure4();
  return bench::exit_status();
}
