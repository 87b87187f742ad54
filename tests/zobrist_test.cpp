// Property tests for the incremental Zobrist state hash (sim/zobrist.h).
//
// The central invariant: after EVERY step, crash, and rewind, the hash the
// Sim maintained incrementally through its undo log equals a from-scratch
// recomputation over the full world state. The random walk below checks it
// across every registry protocol (each instantiated at its spec's small n),
// with violation collecting on so the violation-log components are
// exercised too.
#include "sim/zobrist.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/claims.h"
#include "core/alg1.h"
#include "core/sec7.h"
#include "sim/explore.h"
#include "sim/sched.h"
#include "sim/sim.h"
#include "util/rng.h"

namespace bsr::sim {
namespace {

/// Two symmetric processes: write own register, read the other's.
std::unique_ptr<Sim> make_pair_sim() {
  auto sim = std::make_unique<Sim>(2);
  const int r0 = sim->add_register("R0", 0, kUnbounded, Value(0));
  const int r1 = sim->add_register("R1", 1, kUnbounded, Value(0));
  auto body = [r0, r1](Env& env) -> Proc {
    const int mine = env.pid() == 0 ? r0 : r1;
    const int theirs = env.pid() == 0 ? r1 : r0;
    co_await env.write(mine, Value(1));
    const OpResult got = co_await env.read(theirs);
    co_return got.value;
  };
  sim->spawn(0, body);
  sim->spawn(1, body);
  return sim;
}

/// Random walk driver: steps, crashes, and rewinds at random, checking the
/// maintained hash against zobrist::full_hash after every action.
void walk_and_check(Sim& sim, const ExploreOptions& opts, std::uint64_t seed,
                    int actions) {
  Rng rng(seed);
  int crashes = 0;
  std::vector<int> crashes_at{0};  // crash count per history size
  std::vector<Choice> cs;
  for (int a = 0; a < actions; ++a) {
    const bool can_rewind = sim.history_size() > 0;
    if (can_rewind && rng.chance(1, 4)) {
      const std::size_t k =
          1 + rng.below(sim.history_size());
      sim.rewind(k);
      crashes_at.resize(crashes_at.size() - k);
      crashes = crashes_at.back();
    } else {
      detail::legal_choices(sim, crashes, opts, cs);
      if (cs.empty()) {
        if (!can_rewind) break;
        const std::size_t k = 1 + rng.below(sim.history_size());
        sim.rewind(k);
        crashes_at.resize(crashes_at.size() - k);
        crashes = crashes_at.back();
      } else {
        const Choice& c = cs[rng.below(cs.size())];
        if (c.kind == Choice::Kind::Step) {
          sim.step(c.pid, c.recv_from);
        } else {
          sim.crash(c.pid);
          crashes += 1;
        }
        crashes_at.push_back(crashes);
      }
    }
    ASSERT_EQ(sim.state_hash(), zobrist::full_hash(sim))
        << "incremental hash diverged after action " << a;
  }
}

TEST(Zobrist, IncrementalHashMatchesRecomputationOnEveryRegistryProtocol) {
  for (const analysis::ProtocolSpec& spec : analysis::builtin_protocols()) {
    SCOPED_TRACE(spec.name);
    std::unique_ptr<Sim> sim = spec.factory();
    ASSERT_NE(sim, nullptr);
    ASSERT_EQ(sim->total_steps(), 0);     // checkpointing needs an unstepped Sim
    sim->set_violation_collecting(true);  // demos violate; keep walking
    sim->set_checkpointing(true);
    sim->set_state_hashing(true);
    ExploreOptions opts = spec.explore;
    opts.max_crashes = std::max(opts.max_crashes, 1);
    walk_and_check(*sim, opts, /*seed=*/0xb5f0 + 17, /*actions=*/120);
  }
}

TEST(Zobrist, CommutingStepsConvergeAndDivergentStepsDoNot) {
  // The two processes' first actions are independent (their start steps):
  // [p0 p1] and [p1 p0] must reach the same hash, while the two one-step
  // prefixes must differ (the per-pid histories differ).
  auto a = make_pair_sim();
  auto b = make_pair_sim();
  for (Sim* s : {a.get(), b.get()}) {
    s->set_checkpointing(true);
    s->set_state_hashing(true);
  }
  a->step(0);
  b->step(1);
  EXPECT_NE(a->state_hash(), b->state_hash());
  a->step(1);
  b->step(0);
  EXPECT_EQ(a->state_hash(), b->state_hash());
}

/// Parses a schedule of the form "p0 p1 c2 p2<1": `pN` steps process N,
/// `cN` crashes it, and `pN<M` steps N's pending Recv from sender M.
std::vector<Choice> schedule(const std::string& text) {
  std::vector<Choice> out;
  std::istringstream is(text);
  std::string tok;
  while (is >> tok) {
    const Choice::Kind kind =
        tok[0] == 'c' ? Choice::Kind::Crash : Choice::Kind::Step;
    const std::size_t lt = tok.find('<');
    const Pid pid = std::stoi(tok.substr(1, lt));
    const Pid from =
        lt == std::string::npos ? -1 : std::stoi(tok.substr(lt + 1));
    out.push_back(Choice{kind, pid, from});
  }
  return out;
}

/// Hashes `sim` at its root and after `text` is applied.
std::pair<std::uint64_t, std::uint64_t> pinned_hashes(Sim& sim,
                                                      const std::string& text) {
  sim.set_checkpointing(true);
  sim.set_state_hashing(true);
  const std::uint64_t root = sim.state_hash();
  const std::vector<Choice> sched = schedule(text);
  EXPECT_EQ(run_schedule(sim, sched), sched.size()) << text;
  EXPECT_EQ(sim.state_hash(), zobrist::full_hash(sim));
  return {root, sim.state_hash()};
}

TEST(Zobrist, StateHashIsPinned) {
  // The exact hash values: any change to a component formula (register,
  // history, channel, crash, violation) or to a chain seed moves at least
  // one of them, so a rewrite of the Sim's hash upkeep must keep every
  // formula, and with it the transposition table's behaviour.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;

  Sim alg1(2);  // registers and histories
  core::install_alg1(alg1, 3, {0, 1});
  got.push_back(pinned_hashes(alg1, "p0 p1 p0 p1 p0 p0 p1 p1 p0 p1"));

  Sim ic(3);  // crashes, composite (full-information) register contents
  core::install_full_info_ic(ic, 3, {Value(0), Value(1), Value(2)});
  got.push_back(pinned_hashes(ic, "p0 p1 p2 p0 p1 c2 p0 p1 p0 p1 p0"));

  Sim chan(3);  // channel queues and Recv senders
  for (const Pid sender : {0, 1}) {
    chan.spawn(sender, [sender](Env& env) -> Proc {
      co_await env.send(2, Value(10 + sender));
      co_await env.send(2, Value(20 + sender));
      co_return Value(0);
    });
  }
  chan.spawn(2, [](Env& env) -> Proc {
    const OpResult m = co_await env.recv();
    co_return m.value;
  });
  got.push_back(pinned_hashes(chan, "p0 p0 p1 p1 p0 p2 p2<1"));

  Sim race(2);  // collected violations, blamed on p1
  const int w = race.add_input_register("W", -1);
  for (const Pid p : {0, 1}) {
    race.spawn(p, [w](Env& env) -> Proc {
      co_await env.write(w, Value(7));
      co_return Value(0);
    });
  }
  race.set_violation_collecting(true);
  got.push_back(pinned_hashes(race, "p0 p1 p0 p1"));
  ASSERT_EQ(race.model_violations().size(), 1u);

  const std::vector<std::pair<std::uint64_t, std::uint64_t>> pinned = {
      {0x704f70d0f06b8678ULL, 0xfba35e4a81e9b787ULL},
      {0x2f458004075894b6ULL, 0x49d77525a122929aULL},
      {0x0ULL, 0x64749f31cb74a2e3ULL},  // no registers: the root is empty
      {0x6d5cfdc3efe4cfdbULL, 0xab0716ee7b9252dcULL},
  };
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].first, pinned[i].first)
        << "root 0x" << std::hex << got[i].first;
    EXPECT_EQ(got[i].second, pinned[i].second)
        << "final 0x" << std::hex << got[i].second;
  }
}

TEST(Zobrist, ViolationAttributionKeepsConvergedStatesDistinct) {
  // Two processes write the SAME value to one write-once register. The
  // world state converges under both orders, but the violation log blames
  // a different process in each — the hash must keep the two apart, or
  // pruning would lose one finding.
  auto build = [](std::unique_ptr<Sim>& sim, int& reg) {
    sim = std::make_unique<Sim>(2);
    reg = sim->add_input_register("W", -1);
    auto body = [reg](Env& env) -> Proc {
      co_await env.write(reg, Value(7));
      co_return Value(0);
    };
    sim->spawn(0, body);
    sim->spawn(1, body);
    sim->set_violation_collecting(true);
    sim->set_checkpointing(true);
    sim->set_state_hashing(true);
  };
  std::unique_ptr<Sim> a;
  std::unique_ptr<Sim> b;
  int ra = -1;
  int rb = -1;
  build(a, ra);
  build(b, rb);
  auto drive = [](Sim& s, Pid first, Pid second) {
    s.step(first);   // start
    s.step(second);  // start
    s.step(first);   // write (ok)
    s.step(second);  // write (write-once violation, blamed on `second`)
  };
  drive(*a, 0, 1);
  drive(*b, 1, 0);
  ASSERT_EQ(a->model_violations().size(), 1u);
  ASSERT_EQ(b->model_violations().size(), 1u);
  EXPECT_NE(a->model_violations()[0].pid, b->model_violations()[0].pid);
  EXPECT_EQ(a->peek(ra), b->peek(rb));
  EXPECT_NE(a->state_hash(), b->state_hash());
}

}  // namespace
}  // namespace bsr::sim
