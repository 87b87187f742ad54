// Figure 3 reproduction: the t-augmented ring (the 2-augmented 7-node ring
// of the figure) — topology, (t+1)-connectivity under every ≤t removal set,
// and the flooding router's delivery cost (link transmissions per message).
#include <deque>

#include "common.h"
#include "msg/router.h"

namespace {

using namespace bsr;
using msg::FloodRouter;
using msg::LinkSend;

/// Delivers one message across the ring; returns (link transmissions, hops
/// along the delivery path is implicit in flooding, so we report total link
/// messages and whether it arrived).
std::pair<long, bool> flood_once(int n, int t, int src, int dst,
                                 const std::vector<bool>& dead) {
  std::vector<FloodRouter> nodes;
  for (int i = 0; i < n; ++i) nodes.emplace_back(i, n, t);
  std::deque<std::pair<sim::Pid, Value>> wire;
  long transmissions = 0;
  for (const LinkSend& s :
       nodes[static_cast<std::size_t>(src)].send(dst, Value(1))) {
    wire.emplace_back(s.to, s.envelope);
    ++transmissions;
  }
  bool delivered = false;
  while (!wire.empty()) {
    auto [to, env] = std::move(wire.front());
    wire.pop_front();
    if (dead[static_cast<std::size_t>(to)]) continue;
    auto rx = nodes[static_cast<std::size_t>(to)].on_receive(env);
    for (const LinkSend& s : rx.forwards) {
      wire.emplace_back(s.to, s.envelope);
      ++transmissions;
    }
    delivered |= !rx.deliveries.empty();
  }
  return {transmissions, delivered};
}

void print_figure3() {
  bench::banner("Figure 3 — the 2-augmented 7-node ring",
                "each node links to its t+1 successors; the graph stays "
                "strongly connected after removing any t nodes");

  const int n = 7;
  const int t = 2;
  const auto edges = msg::t_augmented_ring(n, t);
  bench::Table topo({"node", "out-neighbours"});
  for (int i = 0; i < n; ++i) {
    std::string nbrs;
    for (sim::Pid p : edges[static_cast<std::size_t>(i)]) {
      nbrs += std::to_string(p) + " ";
    }
    std::string successors;
    for (int d = 1; d <= t + 1; ++d) {
      successors += std::to_string((i + d) % n) + " ";
    }
    bench::expect("node " + bench::str(i) + " out-neighbours", successors,
                  nbrs);
    topo.row({bench::str(i), nbrs});
  }
  topo.print();

  // Connectivity census over every removal set of size <= t.
  bench::Table conn({"n", "t", "removal sets (|S|<=t)", "still connected"});
  for (const auto& [nn, tt] : std::vector<std::pair<int, int>>{
           {5, 1}, {6, 2}, {7, 2}, {9, 3}, {11, 4}}) {
    const auto e = msg::t_augmented_ring(nn, tt);
    long sets = 0;
    long ok = 0;
    for (std::uint32_t mask = 0; mask < (1u << nn); ++mask) {
      std::vector<sim::Pid> removed;
      for (int i = 0; i < nn; ++i) {
        if (mask & (1u << i)) removed.push_back(i);
      }
      if (static_cast<int>(removed.size()) > tt) continue;
      ++sets;
      ok += msg::strongly_connected_after_removal(e, removed) ? 1 : 0;
    }
    // Σ_{i <= t} C(n, i) removal sets.
    long binomial_sum = 0;
    long binom = 1;
    for (int i = 0; i <= tt; ++i) {
      binomial_sum += binom;
      binom = binom * (nn - i) / (i + 1);
    }
    const std::string row = "n=" + bench::str(nn) + " t=" + bench::str(tt);
    bench::expect(row + " removal sets", binomial_sum, sets);
    bench::expect(row + " all still connected", true, ok == sets);
    conn.row({bench::str(nn), bench::str(tt), bench::str(sets),
              bench::str(ok) + (ok == sets ? " (all)" : " (!!)")});
  }
  conn.print();

  // Flooding cost: link transmissions per message by ring distance, the
  // same with or without crashes.
  const std::vector<long> link_msgs{1, 1, 1, 6, 9, 12};
  bench::Table cost({"dst (from 0)", "link msgs (no crash)",
                     "link msgs (worst <=t crash)", "delivered"});
  for (int dst = 1; dst < n; ++dst) {
    const auto [tx, ok] = flood_once(n, t, 0, dst, std::vector<bool>(n, false));
    long worst = tx;
    bool all_ok = ok;
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<bool> dead(n, false);
      int crashes = 0;
      for (int i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          dead[static_cast<std::size_t>(i)] = true;
          ++crashes;
        }
      }
      if (crashes == 0 || crashes > t || dead[0] ||
          dead[static_cast<std::size_t>(dst)]) {
        continue;
      }
      const auto [tx2, ok2] = flood_once(n, t, 0, dst, dead);
      worst = std::max(worst, tx2);
      all_ok &= ok2;
    }
    const std::string row = "dst " + bench::str(dst);
    const long want = link_msgs[static_cast<std::size_t>(dst - 1)];
    bench::expect(row + " link msgs", want, tx);
    bench::expect(row + " link msgs (worst crash)", want, worst);
    bench::expect(row + " delivered", true, all_ok);
    cost.row({bench::str(dst), bench::str(tx), bench::str(worst),
              all_ok ? "yes" : "NO"});
  }
  cost.print();
}

}  // namespace

int main() {
  print_figure3();
  return bench::exit_status();
}
