#include "core/sec6.h"

#include <algorithm>
#include <deque>
#include <string>

#include "msg/abd.h"
#include "msg/abp.h"
#include "msg/local.h"
#include "msg/router.h"
#include "proto/builder.h"
#include "util/codec.h"
#include "util/errors.h"

namespace bsr::core {

namespace ir = analysis::ir;
using msg::AbdLayer;
using msg::FloodRouter;
using msg::LocalTask;
using proto::P;
using proto::Proto;
using sim::OpResult;
using sim::Proc;
using sim::Task;

bool Sec6Result::all_decided(const sim::Sim& sim) const {
  for (sim::Pid p = 0; p < sim.n(); ++p) {
    if (!sim.crashed(p) &&
        !decision[static_cast<std::size_t>(p)].has_value()) {
      return false;
    }
  }
  return true;
}

std::function<bool(const sim::Sim&)> Sec6Result::done_predicate(
    std::shared_ptr<Sec6Result> res) {
  return [res](const sim::Sim& sim) { return res->all_decided(sim); };
}

namespace {

std::uint64_t reg_id(int round, int pid, int n) {
  return static_cast<std::uint64_t>(round) * static_cast<std::uint64_t>(n) +
         static_cast<std::uint64_t>(pid);
}

/// The application of Theorem 1.3's demonstration: T-round midpoint
/// averaging over the emulated registers (see file comment).
LocalTask averaging_app(AbdLayer& abd, int n, int me, int rounds,
                        std::uint64_t input,
                        std::shared_ptr<Sec6Result> result) {
  std::uint64_t est = input << rounds;
  for (int r = 0; r < rounds; ++r) {
    co_await abd.write(reg_id(r, me, n), Value(est));
    std::uint64_t lo = est;
    std::uint64_t hi = est;
    for (int j = 0; j < n; ++j) {
      if (j == me) continue;
      const Value v = co_await abd.read(reg_id(r, j, n));
      if (v.is_bottom()) continue;
      lo = std::min(lo, v.as_u64());
      hi = std::max(hi, v.as_u64());
    }
    est = (lo + hi) / 2;  // exact: round-r values share a 2^{T-r} factor
  }
  result->decision[static_cast<std::size_t>(me)] = est;
}

void check_stack_args(const sim::Sim& sim, Sec6Options opts,
                      const std::vector<std::uint64_t>& inputs) {
  usage_check(opts.t >= 1 && 2 * opts.t < sim.n(),
              "sec6: Theorem 1.3 requires 1 <= t < n/2");
  usage_check(opts.rounds >= 1 && opts.rounds <= 32, "sec6: bad round count");
  usage_check(static_cast<int>(inputs.size()) == sim.n(),
              "sec6: one input per process");
  for (std::uint64_t x : inputs) {
    usage_check(x <= 1, "sec6: inputs must be binary");
  }
}

// ------------------------------------------------------------- native ABD --

/// AbdLayer sends to every other process directly (self-delivery is
/// internal), so the declared topology is the complete graph minus loops.
std::vector<sim::Pid> complete_out_edges(int n, int me) {
  std::vector<sim::Pid> dsts;
  for (int j = 0; j < n; ++j) {
    if (j != me) dsts.push_back(j);
  }
  return dsts;
}

Proc abd_node_body(P p, Sec6Options opts, std::uint64_t input,
                   std::shared_ptr<Sec6Result> result) {
  const int n = p.n();
  const int me = p.pid();
  std::deque<std::pair<sim::Pid, Value>> outbox;
  AbdLayer abd(me, n, opts.t, [&outbox](sim::Pid dst, Value payload) {
    outbox.emplace_back(dst, std::move(payload));
  });
  const LocalTask app = averaging_app(abd, n, me, opts.rounds, input, result);
  const std::vector<sim::Pid> dsts = complete_out_edges(n, me);
  // Processes serve forever: one round whose pump has no finite bound.
  co_await p.round([&]() -> Task<void> {
    co_await p.serve([&]() -> Task<void> {
      app.rethrow_if_failed();
      co_await p.flush(outbox, dsts, ir::ValueExpr::any());
      co_await p.recv_then([&](const OpResult& m) {  // serve forever
        abd.on_message(m.from, m.value);
      });
    });
  });
  // Unreachable in execute mode (the serve pump never terminates); reflect
  // mode returns here after emitting one pump iteration.
  co_return Value();
}

// ------------------------------------------------------- native ring + ABD --

Proc ring_node_body(P p, Sec6Options opts, std::uint64_t input,
                    std::shared_ptr<Sec6Result> result) {
  const int n = p.n();
  const int me = p.pid();
  std::deque<std::pair<sim::Pid, Value>> outbox;
  FloodRouter router(me, n, opts.t);
  AbdLayer abd(me, n, opts.t,
               [&outbox, &router](sim::Pid dst, Value payload) {
                 for (msg::LinkSend& ls : router.send(dst, std::move(payload))) {
                   outbox.emplace_back(ls.to, std::move(ls.envelope));
                 }
               });
  const LocalTask app = averaging_app(abd, n, me, opts.rounds, input, result);
  // The flooding router never sends off-ring: the declared destinations are
  // exactly my t-augmented-ring out-neighbours.
  const std::vector<sim::Pid> dsts =
      msg::t_augmented_ring(n, opts.t)[static_cast<std::size_t>(me)];
  co_await p.round([&]() -> Task<void> {
    co_await p.serve([&]() -> Task<void> {
      app.rethrow_if_failed();
      co_await p.flush(outbox, dsts, ir::ValueExpr::any());
      co_await p.recv_then([&](const OpResult& m) {
        FloodRouter::RxResult rx = router.on_receive(m.value);
        for (msg::LinkSend& ls : rx.forwards) {
          outbox.emplace_back(ls.to, std::move(ls.envelope));
        }
        for (auto& [src, payload] : rx.deliveries) {
          abd.on_message(src, payload);
        }
      });
    });
  });
  // Unreachable in execute mode (the serve pump never terminates); reflect
  // mode returns here after emitting one pump iteration.
  co_return Value();
}

// --------------------------------------------------------- register stack --

/// Bit layout of process i's 3(t+1)-bit register:
///   bits [2(o-1), 2(o-1)+1]  — (data, alt) of the out-link to (i+o) mod n
///   bit  [2(t+1) + (o-1)]    — ack of the in-link from (i-o) mod n
struct SlotLayout {
  int t;
  [[nodiscard]] int out_data(int o) const { return 2 * (o - 1); }
  [[nodiscard]] int out_alt(int o) const { return 2 * (o - 1) + 1; }
  [[nodiscard]] int ack(int o) const { return 2 * (t + 1) + (o - 1); }
};

int bit_of(std::uint64_t word, int pos) {
  return static_cast<int>((word >> pos) & 1);
}

/// One ABP link end of a pump: the peer at the other end (also its slot in
/// the pump's pid-indexed words) and the link's offset o in the packed
/// layout.
template <class End>
struct LinkEnd {
  sim::Pid peer;
  int o;
  End end;
};

std::vector<sim::Pid> sorted_unique(std::vector<sim::Pid> pids) {
  std::sort(pids.begin(), pids.end());
  pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
  return pids;
}

Proc abp_node_body(P p, Sec6Options opts, std::uint64_t input,
                   std::vector<int> regs,
                   std::shared_ptr<Sec6Result> result) {
  const int n = p.n();
  const int me = p.pid();
  const int t = opts.t;
  const int width = sec6_register_bits(t);
  const SlotLayout layout{t};
  FloodRouter router(me, n, t);

  // The pump's state, built once in ascending pid order: the peers whose
  // registers it reads (my in- and out-neighbours), one ABP sender per
  // out-neighbour and one receiver per in-neighbour. My out-link to nb has
  // offset (nb - me) mod n; my in-link from nb is nb's out-link, with
  // offset (me - nb) mod n.
  const std::vector<sim::Pid> outs = sorted_unique(router.out_neighbours());
  const std::vector<sim::Pid> ins = sorted_unique(router.in_neighbours());
  std::vector<sim::Pid> peers = outs;
  peers.insert(peers.end(), ins.begin(), ins.end());
  peers = sorted_unique(std::move(peers));
  std::vector<LinkEnd<msg::AbpSender>> senders;
  senders.reserve(outs.size());
  for (const sim::Pid nb : outs) {
    senders.push_back({nb, ((nb - me) % n + n) % n, {}});
  }
  std::vector<LinkEnd<msg::AbpReceiver>> receivers;
  receivers.reserve(ins.size());
  for (const sim::Pid nb : ins) {
    receivers.push_back({nb, ((me - nb) % n + n) % n, {}});
  }
  // The last word read from each peer's register, indexed by pid.
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n), 0);

  const auto enqueue_env = [&](const msg::LinkSend& ls) {
    const auto link =
        std::find_if(senders.begin(), senders.end(),
                     [&](const auto& l) { return l.peer == ls.to; });
    usage_check(link != senders.end(), [&] {
      return "sec6: p" + std::to_string(me) + " has no ABP link to p" +
             std::to_string(ls.to);
    });
    link->end.enqueue(encode_bits(ls.envelope));
  };

  AbdLayer abd(me, n, t, [&](sim::Pid dst, Value payload) {
    for (const msg::LinkSend& ls : router.send(dst, std::move(payload))) {
      enqueue_env(ls);
    }
  });
  const LocalTask app = averaging_app(abd, n, me, opts.rounds, input, result);

  std::uint64_t shadow = 0;  // local copy of my register's contents
  // The pump serves forever; its trip count has no finite upper bound.
  co_await p.serve([&]() -> Task<void> {
    app.rethrow_if_failed();
    // One pump: read every relevant peer register once, in ascending pid
    // order...
    for (const sim::Pid nb : peers) {
      words[static_cast<std::size_t>(nb)] =
          (co_await p.read(regs[static_cast<std::size_t>(nb)])).value.as_u64();
    }
    // ...drain incoming links...
    for (LinkEnd<msg::AbpReceiver>& in : receivers) {
      const std::uint64_t w = words[static_cast<std::size_t>(in.peer)];
      for (BitVec& bits : in.end.poll(bit_of(w, layout.out_data(in.o)),
                                      bit_of(w, layout.out_alt(in.o)))) {
        FloodRouter::RxResult rx = router.on_receive(decode_bits(bits));
        for (const msg::LinkSend& ls : rx.forwards) enqueue_env(ls);
        for (auto& [src, payload] : rx.deliveries) abd.on_message(src, payload);
      }
    }
    // ...advance outgoing links (nb stores the ack for my link me→nb in its
    // in-slot with the same offset)...
    for (LinkEnd<msg::AbpSender>& out : senders) {
      out.end.poll(
          bit_of(words[static_cast<std::size_t>(out.peer)], layout.ack(out.o)));
    }
    // ...and publish my new wire state in a single register write — only
    // when it changed, so the write sits under a maybe in the IR.
    std::uint64_t now = 0;
    for (const LinkEnd<msg::AbpSender>& out : senders) {
      now |= static_cast<std::uint64_t>(out.end.wire_data())
             << layout.out_data(out.o);
      now |= static_cast<std::uint64_t>(out.end.wire_alt())
             << layout.out_alt(out.o);
    }
    for (const LinkEnd<msg::AbpReceiver>& in : receivers) {
      now |= static_cast<std::uint64_t>(in.end.ack_bit()) << layout.ack(in.o);
    }
    co_await p.when(now != shadow, [&]() -> Task<void> {
      co_await p.write(regs[static_cast<std::size_t>(me)], Value(now),
                       ir::ValueExpr::bits(width));
      shadow = now;
    });
  });
  // Unreachable in execute mode (the pump never terminates); reflect mode
  // returns here after emitting one pump iteration.
  co_return Value();
}

/// The single source for the native-ABD stack: complete-graph channels plus
/// one serving node per process, against whichever mode `pr` is in.
void build_abd_stack(Proto& pr, Sec6Options opts,
                     const std::vector<std::uint64_t>& inputs,
                     std::shared_ptr<Sec6Result> result) {
  const int n = pr.n();
  // AbdLayer sends to every other process directly (self-delivery is
  // internal), so the declared topology is the complete graph minus loops.
  for (int i = 0; i < n; ++i) {
    for (const sim::Pid dst : complete_out_edges(n, i)) {
      pr.channel(i, dst);
    }
  }
  pr.max_rounds(1);
  for (int i = 0; i < n; ++i) {
    pr.spawn(i, [opts, x = inputs[static_cast<std::size_t>(i)],
                 result](P p) -> Proc {
      return abd_node_body(p, opts, x, result);
    });
  }
}

/// The single source for the ring stack: t-augmented-ring channels plus one
/// flooding node per process.
void build_ring_stack(Proto& pr, Sec6Options opts,
                      const std::vector<std::uint64_t>& inputs,
                      std::shared_ptr<Sec6Result> result) {
  const int n = pr.n();
  const std::vector<std::vector<sim::Pid>> edges =
      msg::t_augmented_ring(n, opts.t);
  for (int i = 0; i < n; ++i) {
    for (const sim::Pid dst : edges[static_cast<std::size_t>(i)]) {
      pr.channel(i, dst);
    }
  }
  pr.max_rounds(1);
  for (int i = 0; i < n; ++i) {
    pr.spawn(i, [opts, x = inputs[static_cast<std::size_t>(i)],
                 result](P p) -> Proc {
      return ring_node_body(p, opts, x, result);
    });
  }
}

/// The single source for the register stack: one 3(t+1)-bit register per
/// process plus the ABP pump bodies.
std::vector<int> build_register_stack(Proto& pr, Sec6Options opts,
                                      const std::vector<std::uint64_t>& inputs,
                                      std::shared_ptr<Sec6Result> result) {
  const int n = pr.n();
  std::vector<int> regs;
  for (int i = 0; i < n; ++i) {
    std::string name = "abp.R";
    name += std::to_string(i);
    regs.push_back(pr.add_register(std::move(name), i,
                                   sec6_register_bits(opts.t), Value(0)));
  }
  for (int i = 0; i < n; ++i) {
    pr.spawn(i, [opts, x = inputs[static_cast<std::size_t>(i)], regs,
                 result](P p) -> Proc {
      return abp_node_body(p, opts, x, regs, result);
    });
  }
  return regs;
}

/// Reflection inputs for the describe_* wrappers: the stack bodies' IR does
/// not depend on inputs or on anyone reading the result sink.
std::vector<std::uint64_t> zero_inputs(int n) {
  return std::vector<std::uint64_t>(static_cast<std::size_t>(n), 0);
}

}  // namespace

void install_abd_stack(sim::Sim& sim, Sec6Options opts,
                       const std::vector<std::uint64_t>& inputs,
                       std::shared_ptr<Sec6Result> result) {
  check_stack_args(sim, opts, inputs);
  Proto pr(sim);
  build_abd_stack(pr, opts, inputs, std::move(result));
}

sim::SimOptions ring_sim_options(int n, int t) {
  sim::SimOptions o;
  o.n = n;
  o.edges = msg::t_augmented_ring(n, t);
  return o;
}

void install_ring_stack(sim::Sim& sim, Sec6Options opts,
                        const std::vector<std::uint64_t>& inputs,
                        std::shared_ptr<Sec6Result> result) {
  check_stack_args(sim, opts, inputs);
  Proto pr(sim);
  build_ring_stack(pr, opts, inputs, std::move(result));
}

analysis::ir::ProtocolIR describe_register_stack(int n, Sec6Options opts) {
  usage_check(opts.t >= 1 && 2 * opts.t < n,
              "describe_register_stack: Theorem 1.3 requires 1 <= t < n/2");
  Proto pr(Proto::ReflectOptions{.n = n, .params = {}});
  build_register_stack(pr, opts, zero_inputs(n),
                       std::make_shared<Sec6Result>(n));
  return std::move(pr).take_ir();
}

analysis::ir::ProtocolIR describe_abd_stack(int n, Sec6Options opts) {
  usage_check(opts.t >= 1 && 2 * opts.t < n,
              "describe_abd_stack: requires 1 <= t < n/2");
  Proto pr(Proto::ReflectOptions{.n = n, .params = {}});
  build_abd_stack(pr, opts, zero_inputs(n), std::make_shared<Sec6Result>(n));
  return std::move(pr).take_ir();
}

analysis::ir::ProtocolIR describe_ring_stack(int n, Sec6Options opts) {
  usage_check(opts.t >= 1 && 2 * opts.t < n,
              "describe_ring_stack: requires 1 <= t < n/2");
  Proto pr(Proto::ReflectOptions{.n = n, .params = {}});
  build_ring_stack(pr, opts, zero_inputs(n), std::make_shared<Sec6Result>(n));
  return std::move(pr).take_ir();
}

std::vector<int> install_register_stack(sim::Sim& sim, Sec6Options opts,
                                        const std::vector<std::uint64_t>& inputs,
                                        std::shared_ptr<Sec6Result> result) {
  check_stack_args(sim, opts, inputs);
  Proto pr(sim);
  return build_register_stack(pr, opts, inputs, std::move(result));
}

}  // namespace bsr::core
