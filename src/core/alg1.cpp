#include "core/alg1.h"

#include <algorithm>

#include "util/errors.h"

namespace bsr::core {

namespace ir = analysis::ir;
using proto::LoopCtl;
using proto::P;
using proto::Proto;
using sim::OpResult;
using sim::Proc;
using sim::Task;

Task<std::uint64_t> alg1_agree(P p, Alg1Handles h, std::uint64_t k,
                               std::uint64_t input, Alg1Diag* diag) {
  const int me = p.pid();
  const int other = 1 - me;
  const std::uint64_t denom = alg1_denominator(k);

  // line 2: I_me.write
  co_await p.write(h.input[me], Value(input), ir::ValueExpr::range(0, 1));

  std::uint64_t prec = 0;  // initialized to 0 (matches R's initial value)
  std::uint64_t newv = 0;
  std::uint64_t r = 0;
  bool broke = false;
  // Lines 3–7: up to k write/read iterations; the early break (same value
  // read twice) fires only after a full iteration, so the trip count is
  // [1, k]. The alternating bit r % 2 stays in {0, 1}.
  co_await p.loop_until(
      ir::Count::between(1, static_cast<long>(k)),
      [&]() -> Task<LoopCtl> {
        ++r;                                                     // line 3
        co_await p.write(h.comm[me], Value(r % 2),               // line 4
                         ir::ValueExpr::range(0, 1));
        const OpResult got = co_await p.read(h.comm[other]);     // line 5
        newv = got.value.as_u64();
        if (newv == prec) {  // line 7: same value read twice — leave the loop
          broke = true;
          co_return LoopCtl::Break;
        }
        prec = newv;  // line 6
        co_return r >= k ? LoopCtl::Break : LoopCtl::Continue;
      });
  if (!broke) r = k;  // the for-loop completed its k iterations
  if (diag != nullptr) diag->iterations[p.pid()] = static_cast<int>(r);

  // Lines 8–10: exchange inputs through the write-once registers.
  const std::uint64_t x_me = (co_await p.read(h.input[me])).value.as_u64();
  const Value x_other_raw = (co_await p.read(h.input[other])).value;
  if (x_other_raw.is_bottom() || x_me == x_other_raw.as_u64()) {
    if (diag != nullptr) diag->line[me] = Alg1DecideLine::SameInputs;
    co_return x_me * denom;  // decide own input, as a grid numerator
  }
  const std::uint64_t x_other = x_other_raw.as_u64();

  if (r == k && newv == k % 2) {
    // Lines 11–14: left the for-loop after k full iterations.
    const bool who_is_me = (r % 2 == 0);  // line 13
    const std::uint64_t x_who = who_is_me ? x_me : x_other;
    if (diag != nullptr) diag->line[me] = Alg1DecideLine::LoopEnd;
    co_return x_who + k;  // line 14: (x_who + k) / (2k+1)
  }

  // Lines 15–17: left the for-loop after reading the same value twice.
  const bool who_is_me = (r % 2 != 0);  // line 16
  const std::uint64_t x_who = who_is_me ? x_me : x_other;
  // line 17: x_who + (-1)^{x_who} (r-1)/(2k+1), as a numerator over 2k+1.
  const std::int64_t numerator =
      static_cast<std::int64_t>(x_who * denom) +
      (x_who == 0 ? 1 : -1) * static_cast<std::int64_t>(r - 1);
  model_check(numerator >= 0 && numerator <= static_cast<std::int64_t>(denom),
              "Algorithm 1 produced an out-of-grid decision");
  if (diag != nullptr) diag->line[me] = Alg1DecideLine::EarlyBreak;
  co_return static_cast<std::uint64_t>(numerator);
}

Alg1Handles add_alg1_registers(Proto& pr) {
  usage_check(pr.n() == 2, "Algorithm 1 is a 2-process protocol");
  Alg1Handles h;
  // ⊥/0/1 input registers: 3 states, i.e. 2 bits with one state for ⊥.
  h.input[0] = pr.add_bottom_register("alg1.I1", 0, /*width_bits=*/2,
                                      /*write_once=*/true);
  h.input[1] = pr.add_bottom_register("alg1.I2", 1, /*width_bits=*/2,
                                      /*write_once=*/true);
  h.comm[0] = pr.add_register("alg1.R1", 0, /*width_bits=*/1, Value(0));
  h.comm[1] = pr.add_register("alg1.R2", 1, /*width_bits=*/1, Value(0));
  return h;
}

Alg1Handles add_alg1_registers(sim::Sim& sim) {
  Proto pr(sim);
  return add_alg1_registers(pr);
}

namespace {

Proc alg1_body(P p, Alg1Handles h, std::uint64_t k, std::uint64_t input,
               Alg1Diag* diag) {
  const std::uint64_t y = co_await alg1_agree(p, h, k, input, diag);
  co_return Value(y);
}

/// The single source: declares the world and spawns both bodies against
/// whichever mode `pr` is in.
Alg1Handles build_alg1(Proto& pr, std::uint64_t k,
                       std::array<std::uint64_t, 2> inputs, Alg1Diag* diag) {
  const Alg1Handles h = add_alg1_registers(pr);
  for (int i = 0; i < 2; ++i) {
    pr.spawn(i, [h, k, input = inputs[static_cast<std::size_t>(i)],
                 diag](P p) -> Proc { return alg1_body(p, h, k, input, diag); });
  }
  return h;
}

}  // namespace

void Alg1Spread::record(const sim::Sim& sim) {
  for (sim::Pid p = 0; p < sim.n(); ++p) {
    if (!sim.terminated(p)) continue;
    min = std::min(min, sim.decision(p).as_u64());
    max = std::max(max, sim.decision(p).as_u64());
  }
  if (sim.terminated(0) && sim.terminated(1)) {
    const std::uint64_t y0 = sim.decision(0).as_u64();
    const std::uint64_t y1 = sim.decision(1).as_u64();
    max_gap = std::max(max_gap, y0 > y1 ? y0 - y1 : y1 - y0);
  }
}

analysis::ir::ProtocolIR describe_alg1(std::uint64_t k) {
  Proto pr(Proto::ReflectOptions{.n = 2, .params = {}});
  build_alg1(pr, k, {0, 1}, nullptr);
  return std::move(pr).take_ir();
}

Alg1Handles install_alg1(sim::Sim& sim, std::uint64_t k,
                         std::array<std::uint64_t, 2> inputs,
                         Alg1Diag* diag) {
  usage_check(sim.n() == 2, "install_alg1: Algorithm 1 is a 2-process protocol");
  usage_check(k >= 1, "install_alg1: k must be at least 1");
  usage_check(inputs[0] <= 1 && inputs[1] <= 1,
              "install_alg1: inputs must be binary");
  Proto pr(sim);
  return build_alg1(pr, k, inputs, diag);
}

}  // namespace bsr::core
