#include "core/alg6.h"

#include <memory>
#include <set>

#include "sim/explore.h"
#include "util/errors.h"

namespace bsr::core {

namespace {

namespace ir = analysis::ir;
using proto::LoopCtl;
using proto::P;
using proto::Proto;
using sim::Env;
using sim::OpResult;
using sim::Proc;
using sim::Task;

int ring_bits(int delta) {
  const int ring = 2 * delta + 1;
  int bits = 0;
  while ((1 << bits) < ring) ++bits;
  return bits;
}

/// Packs (ring position x, history bits H[0..Δ]) into one register value.
std::uint64_t encode(std::uint64_t x, const std::vector<int>& h, int rbits) {
  std::uint64_t v = x;
  for (std::size_t j = 0; j < h.size(); ++j) {
    v |= static_cast<std::uint64_t>(h[j] & 1)
         << (rbits + static_cast<int>(j));
  }
  return v;
}

struct Decoded {
  std::uint64_t x = 0;
  std::vector<int> h;
};

Decoded decode(std::uint64_t v, int rbits, int entries) {
  Decoded d;
  d.x = v & ((std::uint64_t{1} << rbits) - 1);
  d.h.resize(static_cast<std::size_t>(entries));
  for (int j = 0; j < entries; ++j) {
    d.h[static_cast<std::size_t>(j)] =
        static_cast<int>((v >> (rbits + j)) & 1);
  }
  return d;
}

}  // namespace

int alg6_register_bits(int delta) {
  return ring_bits(delta) + (delta + 1);
}

Task<std::pair<int, std::uint64_t>> alg6_simulate(P p, Alg6Handles h,
                                                  Alg6Options opts,
                                                  Alg6Diag* diag) {
  const int me = p.pid();
  const int other = 1 - me;
  const int delta = opts.delta;
  const std::uint64_t ring = static_cast<std::uint64_t>(2 * delta + 1);
  const int rbits = ring_bits(delta);
  const int width = alg6_register_bits(delta);

  // The trace accumulates by appending, so it must start empty on every run
  // of this body — including the incremental explorer's coroutine rebuilds,
  // which re-execute local code when a rewound step returns a different
  // result (see docs/MODEL.md).
  if (diag != nullptr) {
    diag->proc[static_cast<std::size_t>(me)] = Alg6ProcTrace{};
  }

  topo::LabellingProcess lab(me);
  std::uint64_t estr = 0;     // estimate of the other's simulated round
  std::uint64_t xprec = 0;    // other's last known ring position
  int solo_streak = 0;        // c: consecutive simulated solo rounds
  std::vector<int> hist(static_cast<std::size_t>(delta) + 1, 0);

  int round = 0;
  co_await p.loop_until(
      ir::Count::between(1, opts.rounds),
      [&]() -> Task<LoopCtl> {
        ++round;                                          // line 2
        const std::uint64_t x =
            static_cast<std::uint64_t>(round) % ring;     // line 3
        const int v = lab.write_bit();                    // line 4: WRITE(r,…)
        // Lines 5–6: shift the history (oldest out), record round r's bit.
        for (int j = delta; j >= 1; --j) {
          hist[static_cast<std::size_t>(j)] =
              hist[static_cast<std::size_t>(j - 1)];
        }
        hist[0] = v;
        if (diag != nullptr) {
          diag->proc[static_cast<std::size_t>(me)].bits.push_back(v);
        }

        // Line 8: rewrite the whole (x, H) word. encode() packs a ring
        // position < 2Δ+1 with Δ+1 history bits, so every written word fits
        // the declared alg6_register_bits(Δ) width.
        co_await p.write(h.reg[me], Value(encode(x, hist, rbits)),
                         ir::ValueExpr::bits(width));
        const OpResult got = co_await p.read(h.reg[other]);  // line 9
        const Decoded dec = decode(got.value.as_u64(), rbits, delta + 1);

        // Line 10: advance the round estimate by the other's ring movement.
        estr += (dec.x + ring - xprec) % ring;
        xprec = dec.x;  // line 11
        if (diag != nullptr) {
          diag->proc[static_cast<std::size_t>(me)].estr.push_back(estr);
        }

        std::optional<int> obs;
        if (static_cast<std::uint64_t>(round) <= estr) {  // line 12
          // Line 13: the other's round-r bit sits at offset estr - r in its
          // history (Corollary 8.2 bounds the offset by Δ).
          const std::uint64_t off = estr - static_cast<std::uint64_t>(round);
          model_check(
              off <= static_cast<std::uint64_t>(delta),
              "Algorithm 6: history offset exceeds Δ (Cor. 8.2 violated)");
          obs = dec.h[static_cast<std::size_t>(off)];
          solo_streak = 0;
        } else {  // lines 15–17: the simulated round is solo for me
          obs = std::nullopt;
          solo_streak += 1;
        }
        lab.observe(obs);  // the simulated view of round r
        if (diag != nullptr) {
          diag->proc[static_cast<std::size_t>(me)].obs.push_back(obs);
        }
        if (solo_streak == delta) {  // line 18: quit after Δ solo rounds
          co_return LoopCtl::Break;
        }
        co_return round >= opts.rounds ? LoopCtl::Break : LoopCtl::Continue;
      });
  const int r = round;

  if (diag != nullptr) {
    diag->proc[static_cast<std::size_t>(me)].rounds = r;
    diag->proc[static_cast<std::size_t>(me)].final_pos = lab.pos();
  }
  co_return std::pair<int, std::uint64_t>(r, lab.pos());  // line 19: LABEL
}

namespace {

Proc alg6_body(P p, Alg6Handles h, Alg6Options opts, Alg6Diag* diag) {
  const auto [r, pos] = co_await alg6_simulate(p, h, opts, diag);
  co_return make_vec(Value(static_cast<std::uint64_t>(r)), Value(pos));
}

/// The single source: declares the two constant-size registers and spawns
/// both simulation bodies against whichever mode `pr` is in.
Alg6Handles build_alg6_labelling(Proto& pr, Alg6Options opts,
                                 Alg6Diag* diag) {
  Alg6Handles h;
  const int width = alg6_register_bits(opts.delta);
  h.reg[0] = pr.add_register("alg6.R1", 0, width, Value(0));
  h.reg[1] = pr.add_register("alg6.R2", 1, width, Value(0));
  for (int i = 0; i < 2; ++i) {
    pr.spawn(i, [h, opts, diag](P p) -> Proc {
      return alg6_body(p, h, opts, diag);
    });
  }
  return h;
}

}  // namespace

Alg6Handles install_alg6_labelling(sim::Sim& sim, Alg6Options opts,
                                   Alg6Diag* diag) {
  usage_check(sim.n() == 2, "Algorithm 6 is a 2-process protocol");
  usage_check(opts.delta >= 2, "Algorithm 6 requires Δ >= 2 (Lemma 8.7)");
  usage_check(opts.rounds >= 1 && opts.rounds <= 38,
              "Algorithm 6: rounds out of range (labels use 3^R arithmetic)");
  Proto pr(sim);
  return build_alg6_labelling(pr, opts, diag);
}

analysis::ir::ProtocolIR describe_alg6_labelling(Alg6Options opts) {
  usage_check(opts.delta >= 2,
              "describe_alg6_labelling: Algorithm 6 requires Δ >= 2");
  usage_check(opts.rounds >= 1,
              "describe_alg6_labelling: rounds must be positive");
  Proto pr(Proto::ReflectOptions{.n = 2, .params = {}});
  build_alg6_labelling(pr, opts, nullptr);
  return std::move(pr).take_ir();
}

FastAgreementPlan::FastAgreementPlan(Alg6Options opts) : opts_(opts) {
  usage_check(opts.rounds <= 7,
              "FastAgreementPlan: offline path construction enumerates all "
              "executions; use R <= 7");
  // Enumerate every (crash-free) execution of the simulation; collect the
  // final label pairs as edges of the protocol graph. Crash executions add
  // no further labels: a process's label depends only on its own view
  // sequence, which also arises by delaying the other process instead.
  std::set<std::pair<SimLabel, SimLabel>> edges;
  std::set<SimLabel> labels;
  std::set<std::pair<std::pair<int, std::uint64_t>, std::pair<int, std::uint64_t>>>
      finals;
  sim::ExploreOptions eopts;
  eopts.max_steps = 6 * (opts.rounds + 1);
  const sim::Explorer ex(eopts);
  ex.explore(
      [&]() {
        auto s = std::make_unique<sim::Sim>(2);
        install_alg6_labelling(*s, opts_);
        return s;
      },
      [&](sim::Sim& s, const std::vector<sim::Choice>&) {
        SimLabel l0{0, static_cast<int>(s.decision(0).at(0).as_u64()),
                    s.decision(0).at(1).as_u64()};
        SimLabel l1{1, static_cast<int>(s.decision(1).at(0).as_u64()),
                    s.decision(1).at(1).as_u64()};
        labels.insert(l0);
        labels.insert(l1);
        edges.insert({l0, l1});
        if (l0.rounds == opts_.rounds && l1.rounds == opts_.rounds) {
          finals.insert({{l0.rounds, l0.pos}, {l1.rounds, l1.pos}});
        }
      });
  full_len_execs_ = static_cast<long>(finals.size());

  // Adjacency lists; the graph must be a simple path between the two solo
  // labels (wait-free 2-process protocol complexes are paths, §8).
  std::map<SimLabel, std::vector<SimLabel>> adj;
  for (const auto& [a, b] : edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  // Solo labels: Δ consecutive solo rounds from the start.
  topo::LabellingProcess solo0(0);
  topo::LabellingProcess solo1(1);
  for (int i = 0; i < opts_.delta; ++i) {
    solo0.observe(std::nullopt);
    solo1.observe(std::nullopt);
  }
  const SimLabel start{0, opts_.delta, solo0.pos()};
  const SimLabel finish{1, opts_.delta, solo1.pos()};
  usage_check(labels.contains(start) && labels.contains(finish),
              "FastAgreementPlan: solo labels missing from the enumeration");

  // Walk the path from `start`, assigning indices.
  SimLabel prev = start;
  SimLabel cur = start;
  std::uint64_t idx = 0;
  index_[cur] = 0;
  while (!(cur == finish)) {
    const auto& nbrs = adj.at(cur);
    usage_check(nbrs.size() <= 2, "FastAgreementPlan: graph is not a path");
    SimLabel next = cur;
    bool found = false;
    for (const SimLabel& cand : nbrs) {
      if (cand == prev || cand == cur) continue;
      usage_check(!found, "FastAgreementPlan: branching protocol graph");
      next = cand;
      found = true;
    }
    usage_check(found, "FastAgreementPlan: dead end before the p1-solo label");
    prev = cur;
    cur = next;
    index_[cur] = ++idx;
  }
  length_ = idx;
  usage_check(index_.size() == labels.size(),
              "FastAgreementPlan: labels off the main path");
}

std::uint64_t FastAgreementPlan::index_of(const SimLabel& label) const {
  const auto it = index_.find(label);
  usage_check(it != index_.end(), "FastAgreementPlan: unknown label");
  return it->second;
}

namespace {

Proc fast_agreement_body(P p, FastAgreementHandles h,
                         const FastAgreementPlan* plan, std::uint64_t input) {
  const int me = p.pid();
  const int other = 1 - me;
  const std::uint64_t L = plan->path_length();

  co_await p.write(h.input[me], Value(input), ir::ValueExpr::range(0, 1));
  const auto [r, pos] =
      co_await alg6_simulate(p, h.alg6, plan->options(), nullptr);
  const Value x_other_raw = (co_await p.read(h.input[other])).value;

  // §8.1 decision rule. Decisions are grid numerators over L.
  if (x_other_raw.is_bottom() || x_other_raw.as_u64() == input) {
    co_return Value(input * L);
  }
  const std::uint64_t x_other = x_other_raw.as_u64();
  const std::uint64_t x0 = (me == 0) ? input : x_other;  // process 0's input
  const std::uint64_t x1 = (me == 0) ? x_other : input;  // process 1's input
  const std::uint64_t m = plan->index_of(SimLabel{me, r, pos});
  std::uint64_t y = 0;
  if (2 * m < L) {
    y = (x0 == 0) ? m : L - m;
  } else {
    y = (x1 == 1) ? m : L - m;
  }
  co_return Value(y);
}

/// The single source: input registers plus the Algorithm 6 pair, then both
/// decision bodies, against whichever mode `pr` is in.
FastAgreementHandles build_fast_agreement(Proto& pr,
                                          const FastAgreementPlan& plan,
                                          std::array<std::uint64_t, 2> inputs) {
  FastAgreementHandles h;
  h.input[0] = pr.add_input_register("fast.I1", 0);
  h.input[1] = pr.add_input_register("fast.I2", 1);
  const int width = alg6_register_bits(plan.options().delta);
  h.alg6.reg[0] = pr.add_register("alg6.R1", 0, width, Value(0));
  h.alg6.reg[1] = pr.add_register("alg6.R2", 1, width, Value(0));
  for (int i = 0; i < 2; ++i) {
    pr.spawn(i, [h, plan = &plan,
                 input = inputs[static_cast<std::size_t>(i)]](P p) -> Proc {
      return fast_agreement_body(p, h, plan, input);
    });
  }
  return h;
}

}  // namespace

FastAgreementHandles install_fast_agreement(
    sim::Sim& sim, const FastAgreementPlan& plan,
    std::array<std::uint64_t, 2> inputs) {
  usage_check(sim.n() == 2, "fast agreement is a 2-process protocol");
  usage_check(inputs[0] <= 1 && inputs[1] <= 1,
              "fast agreement: inputs must be binary");
  Proto pr(sim);
  return build_fast_agreement(pr, plan, inputs);
}

analysis::ir::ProtocolIR describe_fast_agreement(
    const FastAgreementPlan& plan) {
  Proto pr(Proto::ReflectOptions{.n = 2, .params = {}});
  build_fast_agreement(pr, plan, {0, 1});
  return std::move(pr).take_ir();
}

}  // namespace bsr::core
