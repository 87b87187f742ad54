// Figure 5 reproduction: the labels of the 1-bit labelling protocol and
// their associated ε-agreement values f(λ) = pos/3^r. The figure shows the
// r = 3 path (28 labels, values 0, 1/27, …, 1); we print it and verify the
// two defining properties (solo extremities, adjacent co-final labels).
#include <functional>
#include <map>
#include <set>

#include "common.h"
#include "topo/labelling.h"

namespace {

using namespace bsr;

std::uint64_t pow3(int r) {
  std::uint64_t p = 1;
  for (int i = 0; i < r; ++i) p *= 3;
  return p;
}

void print_figure5() {
  const int r = 3;
  bench::banner("Figure 5 — labels and f(λ) values (r = 3)",
                "labels 0..27 alternate between the processes; "
                "f(λ_s0) = 0, f(λ_s1) = 1; co-final labels are adjacent");

  // Gather which (pos, pid) pairs occur and which pairs co-occur.
  std::set<std::pair<std::uint64_t, std::uint64_t>> finals;
  std::function<void(topo::LabellingProcess, topo::LabellingProcess, int)> rec =
      [&](topo::LabellingProcess a, topo::LabellingProcess b, int depth) {
        if (depth == r) {
          finals.insert({a.pos(), b.pos()});
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

  const std::uint64_t denom = pow3(r);
  std::set<std::uint64_t> labels;
  for (const auto& [a, b] : finals) {
    labels.insert(a);
    labels.insert(b);
    // The labels alternate between the processes: p0's are the even ones.
    bench::expect("final (" + bench::str(a) + "," + bench::str(b) +
                      ") colours",
                  true, a % 2 == 0 && b % 2 == 1);
  }
  bench::expect("labels", denom + 1, labels.size());
  bench::Table table({"pos", "process", "f(λ)", "write bit", "co-final with"});
  for (std::uint64_t pos = 0; pos <= denom; ++pos) {
    std::set<std::uint64_t> partners;
    for (const auto& [a, b] : finals) {
      if (a == pos) partners.insert(b);
      if (b == pos) partners.insert(a);
    }
    std::string ps;
    for (std::uint64_t p : partners) ps += std::to_string(p) + " ";
    // A path: each label is co-final exactly with its neighbours.
    std::string neighbours;
    if (pos > 0) neighbours += std::to_string(pos - 1) + " ";
    if (pos < denom) neighbours += std::to_string(pos + 1) + " ";
    bench::expect("pos " + bench::str(pos) + " co-final with", neighbours,
                  ps);
    table.row({bench::str(pos), pos % 2 == 0 ? "p0" : "p1",
               bench::str(pos) + "/" + bench::str(denom),
               bench::str(topo::label_write_bit(pos)), ps});
  }
  table.print();
  bench::expect("distinct final configurations", denom, finals.size());
  std::cout << "  distinct final configurations: " << finals.size()
            << " (paper: 3^r = " << denom << ")\n";
}

}  // namespace

int main() {
  print_figure5();
  return bench::exit_status();
}
