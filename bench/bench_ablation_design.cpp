// Ablation benches for the design choices called out in DESIGN.md:
//
//  A. §6 layer cost — the same ε-agreement application over four
//     substrates: primitive shared memory (Lemma 2.2 baseline), ABD over a
//     complete message-passing graph, ABD over the flooded t-augmented
//     ring, and the full alternating-bit register stack. Shows what each
//     layer of Theorem 1.3's construction costs in simulator steps.
//  B. Algorithm 6's Δ parameter — register width 3+Δ+… vs the number of
//     realizable IS executions per R: Δ = 2 minimizes width (Theorem 8.1's
//     constant); larger Δ buys more executions (finer ε) per round.
//  C. ABP framing overhead — wire bits transferred per payload bit
//     (the paper's 0-stuffed encoding costs exactly 2×).
#include <functional>
#include <memory>

#include "common.h"
#include "core/alg6.h"
#include "core/baseline.h"
#include "core/sec6.h"
#include "msg/abp.h"
#include "sim/sched.h"

namespace {

using namespace bsr;

// ------------------------------------------------------------ A: layers --

void print_layer_ablation() {
  bench::banner(
      "Ablation A — cost of each §6 layer (n=5, t=2, ε=1/2)",
      "same application; substrates from primitive registers down to "
      "3(t+1)-bit words; steps grow by orders of magnitude per layer");
  const int n = 5;
  const int t = 2;
  const int rounds = 1;
  const std::vector<std::uint64_t> inputs{0, 1, 1, 0, 1};

  bench::Table table({"substrate", "shared objects", "sim steps", "solved"});

  {  // primitive shared memory (unbounded registers, snapshot steps)
    sim::Sim sim(n);
    core::install_unbounded_agreement(sim, rounds, inputs);
    const auto rep = run_round_robin(sim);
    bench::expect("primitive registers steps", 10L, rep.steps);
    bench::expect("primitive registers solved", true, rep.all_decided(n));
    table.row({"primitive registers (Lemma 2.2)",
               bench::str(n) + " unbounded regs", bench::str(rep.steps),
               rep.all_decided(n) ? "yes" : "NO"});
  }
  {  // ABD over complete graph
    sim::Sim sim(n);
    auto result = std::make_shared<core::Sec6Result>(n);
    core::install_abd_stack(sim, core::Sec6Options{t, rounds}, inputs, result);
    const auto rep = run_round_robin_until(
        sim, core::Sec6Result::done_predicate(result), 50'000'000);
    bench::expect("ABD / complete graph steps", 691L, rep.steps);
    bench::expect("ABD / complete graph solved", true, !rep.hit_step_limit);
    table.row({"ABD / complete graph", "n^2 FIFO channels",
               bench::str(rep.steps), rep.hit_step_limit ? "NO" : "yes"});
  }
  {  // ABD over the flooded ring
    sim::Sim sim(core::ring_sim_options(n, t));
    auto result = std::make_shared<core::Sec6Result>(n);
    core::install_ring_stack(sim, core::Sec6Options{t, rounds}, inputs, result);
    const auto rep = run_round_robin_until(
        sim, core::Sec6Result::done_predicate(result), 50'000'000);
    bench::expect("ABD / t-augmented ring steps", 1'591L, rep.steps);
    bench::expect("ABD / t-augmented ring solved", true, !rep.hit_step_limit);
    table.row({"ABD / t-augmented ring", "n(t+1) FIFO links",
               bench::str(rep.steps), rep.hit_step_limit ? "NO" : "yes"});
  }
  {  // full register stack
    sim::Sim sim(n);
    auto result = std::make_shared<core::Sec6Result>(n);
    core::install_register_stack(sim, core::Sec6Options{t, rounds}, inputs,
                                 result);
    const auto rep = run_round_robin_until(
        sim, core::Sec6Result::done_predicate(result), 200'000'000);
    bench::expect("ABP register stack steps", 606'300L, rep.steps);
    bench::expect("ABP register stack solved", true, !rep.hit_step_limit);
    table.row({"ABP register stack (Thm 1.3)",
               bench::str(n) + " regs x " +
                   bench::str(core::sec6_register_bits(t)) + " bits",
               bench::str(rep.steps), rep.hit_step_limit ? "NO" : "yes"});
  }
  table.print();
}

// ----------------------------------------------------------- B: Δ sweep --

void print_delta_ablation() {
  bench::banner(
      "Ablation B — Algorithm 6's solo budget Δ",
      "register width is ⌈log₂(2Δ+1)⌉ + (Δ+1) bits; larger Δ admits more "
      "IS executions (finer ε) per round R — Δ=2 is the width-optimal "
      "choice used by Theorem 8.1");
  bench::Table table({"Δ", "register bits", "sequences @R=8", "2^R"});
  const int bits[] = {6, 7, 9, 10};
  const long sequences[] = {1'393, 4'561, 5'969, 6'399};
  for (int delta = 2; delta <= 5; ++delta) {
    // Count outcome sequences with no Δ consecutive same-process solos.
    const int R = 8;
    long count = 0;
    std::function<void(int, int, int)> rec = [&](int depth, int streak,
                                                 int who) {
      if (depth == R) {
        ++count;
        return;
      }
      for (int oc = 0; oc < 3; ++oc) {  // both, solo0, solo1
        int nstreak = 0;
        int nwho = -1;
        if (oc == 1) nwho = 0;
        if (oc == 2) nwho = 1;
        if (nwho != -1) {
          nstreak = (who == nwho) ? streak + 1 : 1;
          if (nstreak > delta - 1) continue;
        }
        rec(depth + 1, nstreak, nwho);
      }
    };
    rec(0, 0, -1);
    const std::string row = "Δ=" + bench::str(delta);
    bench::expect(row + " register bits", bits[delta - 2],
                  core::alg6_register_bits(delta));
    bench::expect(row + " sequences @R=8", sequences[delta - 2], count);
    table.row({bench::str(delta), bench::str(core::alg6_register_bits(delta)),
               bench::str(count), bench::str(1 << 8)});
  }
  table.print();
}

// ---------------------------------------------------------- C: framing --

void print_framing_ablation() {
  bench::banner("Ablation C — ABP framing overhead",
                "the paper's 0-stuffed encoding transmits 2 wire bits per "
                "payload bit (separator/terminator markers)");
  bench::Table table({"payload bits", "wire bits", "overhead"});
  for (int len : {1, 8, 64, 512}) {
    msg::AbpSender s;
    msg::AbpReceiver r;
    BitVec m(static_cast<std::size_t>(len), 1);
    s.enqueue(m);
    long wire = 0;  // delivered wire bits = receiver ack flips
    int last_ack = r.ack_bit();
    while (!s.idle()) {
      s.poll(r.ack_bit());
      r.poll(s.wire_data(), s.wire_alt());
      if (r.ack_bit() != last_ack) {
        ++wire;
        last_ack = r.ack_bit();
      }
    }
    bench::expect("payload bits " + bench::str(len) + " wire bits", 2L * len,
                  wire);
    table.row({bench::str(len), bench::str(wire),
               bench::str(wire / len) + "x"});
  }
  table.print();
}

}  // namespace

int main() {
  print_layer_ablation();
  print_delta_ablation();
  print_framing_ablation();
  return bench::exit_status();
}
