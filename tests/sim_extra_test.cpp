// Additional kernel coverage: traces over channels, recv filters,
// block-step error paths, run reports, ⊥-capable bounded registers, the
// lazy error-message machinery, and the rewind contract with its kernel
// counters and a seeded differential walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/alg1.h"
#include "core/sec7.h"
#include "sim/explore.h"
#include "sim/sched.h"
#include "sim/sim.h"
#include "sim/zobrist.h"
#include "support/replay_explorer.h"
#include "util/errors.h"
#include "util/rng.h"

namespace bsr::sim {
namespace {

TEST(SimExtra, TraceRecordsSendsAndReceives) {
  SimOptions opts;
  opts.n = 2;
  opts.record_trace = true;
  Sim sim(std::move(opts));
  sim.spawn(0, [](Env& env) -> Proc {
    co_await env.send(1, Value(9));
    co_return Value(0);
  });
  sim.spawn(1, [](Env& env) -> Proc {
    const OpResult m = co_await env.recv();
    co_return m.value;
  });
  run_round_robin(sim);
  bool saw_send = false;
  bool saw_recv = false;
  for (const TraceEvent& ev : sim.trace()) {
    if (ev.request.kind == OpKind::Send) {
      saw_send = true;
      EXPECT_EQ(ev.pid, 0);
      EXPECT_EQ(ev.request.peer, 1);
    }
    if (ev.request.kind == OpKind::Recv) {
      saw_recv = true;
      EXPECT_EQ(ev.pid, 1);
      EXPECT_EQ(ev.result.from, 0);
      EXPECT_EQ(ev.result.value.as_u64(), 9u);
    }
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);
}

TEST(SimExtra, RecvSourceFilterBlocksOtherSenders) {
  Sim sim(3);
  sim.spawn(0, [](Env& env) -> Proc {
    const OpResult m = co_await env.recv(/*from=*/2);  // only from p2
    co_return m.value;
  });
  sim.spawn(1, [](Env& env) -> Proc {
    co_await env.send(0, Value(11));
    co_return Value(0);
  });
  sim.spawn(2, [](Env& env) -> Proc {
    co_await env.send(0, Value(22));
    co_return Value(0);
  });
  sim.step(0);  // blocked on recv(from=2)
  sim.step(1);
  sim.step(1);  // p1's message arrives...
  EXPECT_FALSE(sim.enabled(0));  // ...but does not unblock the filter
  sim.step(2);
  sim.step(2);
  EXPECT_TRUE(sim.enabled(0));
  std::vector<Pid> senders;
  sim.recv_choices(0, senders);
  EXPECT_EQ(senders, std::vector<Pid>{2});
  sim.step(0);
  EXPECT_EQ(sim.decision(0).as_u64(), 22u);
  EXPECT_EQ(sim.channel_size(1, 0), 1u);  // p1's message still queued
}

TEST(SimExtra, RecvSenderChoiceIsCheckedAgainstQueuedChannels) {
  // p0 receives twice from any sender; p1 and p2 each send it their pid. A
  // rejected sender choice crash-stops the stepped process, so each
  // rejection gets its own world.
  const auto make = [] {
    auto sim = std::make_unique<Sim>(3);
    sim->spawn(0, [](Env& env) -> Proc {
      const OpResult a = co_await env.recv();
      const OpResult b = co_await env.recv();
      co_return Value(static_cast<std::uint64_t>(a.from * 10 + b.from));
    });
    for (Pid p : {1, 2}) {
      sim->spawn(p, [](Env& env) -> Proc {
        co_await env.send(0, Value(env.pid()));
        co_return Value(0);
      });
    }
    sim->step(0);
    for (Pid p : {1, 2}) {
      sim->step(p);
      sim->step(p);
    }
    return sim;
  };
  EXPECT_THROW(make()->step(0, 0), UsageError);  // p0 never sends to itself
  EXPECT_THROW(make()->step(0, 3), UsageError);  // no such process

  auto sim = make();
  std::vector<Pid> senders{9};
  sim->recv_choices(1, senders);  // terminated, not blocked on a Recv
  EXPECT_TRUE(senders.empty());
  sim->recv_choices(0, senders);
  EXPECT_EQ(senders, (std::vector<Pid>{1, 2}));
  sim->step(0, 2);  // the scheduler may pick the later channel first
  sim->recv_choices(0, senders);
  EXPECT_EQ(senders, std::vector<Pid>{1});
  sim->step(0);  // -1: the lowest-pid sender left
  EXPECT_EQ(sim->decision(0).as_u64(), 21u);

  auto drained = make();
  drained->step(0, 2);
  EXPECT_THROW(drained->step(0, 2), UsageError);  // p2's channel is empty
}

TEST(SimExtra, StepBlockRejectsNonWriteSnapOps) {
  Sim sim(2);
  const int r = sim.add_register("R", 0, kUnbounded, Value(0));
  sim.spawn(0, [r](Env& env) -> Proc {
    co_await env.write(r, Value(1));
    co_return Value(0);
  });
  sim.spawn(1, [](Env&) -> Proc { co_return Value(0); });
  sim.step(0);
  sim.step(1);
  EXPECT_THROW(sim.step_block({0}), UsageError);
}

TEST(SimExtra, StepBlockRejectsMismatchedGroups) {
  Sim sim(2);
  const int a = sim.add_register("A", 0, kUnbounded, Value());
  const int b = sim.add_register("B", 1, kUnbounded, Value());
  sim.spawn(0, [a](Env& env) -> Proc {
    std::vector<int> g{a};
    co_await env.write_snapshot(a, Value(1), g);
    co_return Value(0);
  });
  sim.spawn(1, [b](Env& env) -> Proc {
    std::vector<int> g{b};
    co_await env.write_snapshot(b, Value(1), g);
    co_return Value(0);
  });
  sim.step(0);
  sim.step(1);
  EXPECT_THROW(sim.step_block({0, 1}), UsageError);
}

TEST(SimExtra, RunReportClassifiesBlockedProcesses) {
  Sim sim(2);
  sim.spawn(0, [](Env& env) -> Proc {
    const OpResult m = co_await env.recv();  // never satisfied
    co_return m.value;
  });
  sim.spawn(1, [](Env&) -> Proc { co_return Value(1); });
  const RunReport rep = run_round_robin(sim);
  EXPECT_EQ(rep.decided, std::vector<Pid>{1});
  EXPECT_EQ(rep.blocked, std::vector<Pid>{0});
  EXPECT_TRUE(rep.crashed.empty());
  EXPECT_FALSE(rep.all_decided(2));
}

TEST(SimExtra, RoundRobinUntilStopsOnPredicate) {
  Sim sim(1);
  const int r = sim.add_register("R", 0, kUnbounded, Value(0));
  sim.spawn(0, [r](Env& env) -> Proc {
    for (;;) {
      const OpResult cur = co_await env.read(r);
      co_await env.write(r, Value(cur.value.as_u64() + 1));
    }
  });
  const RunReport rep = run_round_robin_until(
      sim, [r](const Sim& s) { return s.peek(r).as_u64() >= 10; }, 1000);
  EXPECT_FALSE(rep.hit_step_limit);
  EXPECT_GE(sim.peek(r).as_u64(), 10u);
}

TEST(SimExtra, BottomRegisterRejectsReservedTopValue) {
  Sim sim(1);
  // Width 2 with ⊥: writable integers are 0..2; 3 would collide with ⊥.
  const int r = sim.add_bottom_register("B", 0, 2);
  sim.spawn(0, [r](Env& env) -> Proc {
    co_await env.write(r, Value(2));  // fine
    co_await env.write(r, Value(3));  // reserved
    co_return Value(0);
  });
  sim.step(0);
  sim.step(0);
  EXPECT_EQ(sim.peek(r).as_u64(), 2u);
  EXPECT_THROW(sim.step(0), ModelError);
}

TEST(SimExtra, BottomRegisterWriteOnce) {
  Sim sim(1);
  const int r = sim.add_bottom_register("B", 0, 2, /*write_once=*/true);
  sim.spawn(0, [r](Env& env) -> Proc {
    co_await env.write(r, Value(1));
    co_await env.write(r, Value(0));
    co_return Value(0);
  });
  sim.step(0);
  sim.step(0);
  EXPECT_THROW(sim.step(0), ModelError);
}

// The explorer's partial-order reduction orders a step only if the Sim says
// it may violate, so the query must hold wherever stepping records a
// violation: here it is exact, one clean and one breaking step per rule.
TEST(SimExtra, StepMayViolateIsTrueExactlyWhereTheStepRecords) {
  SimOptions opts;
  opts.n = 3;
  opts.edges = {{1}, {2}, {0}};  // process 1 may send to 2 only
  Sim sim(std::move(opts));
  const int own = sim.add_register("own", 1, kUnbounded, Value(0));
  const int theirs = sim.add_register("theirs", 0, kUnbounded, Value(0));
  const int once = sim.add_input_register("once", 1);
  const int narrow = sim.add_register("narrow", 1, 1, Value(0));
  const int bottom = sim.add_bottom_register("bottom", 1, 2);
  const Value vec(std::vector<Value>(1, Value(0)));
  sim.spawn(1, [own, theirs, once, narrow, bottom, vec](Env& env) -> Proc {
    co_await env.write(own, Value(5));
    co_await env.read(theirs);
    co_await env.write(theirs, Value(1));  // Swmr
    co_await env.write(once, Value(1));
    co_await env.write(once, Value(2));    // WriteOnce
    co_await env.write(narrow, Value(1));
    co_await env.write(narrow, Value(2));  // Width
    co_await env.write(narrow, vec);       // Width
    co_await env.write(bottom, Value(2));
    co_await env.write(bottom, Value(3));  // Bottom
    co_await env.send(2, Value(0));
    co_await env.send(0, Value(0));        // Topology
    co_return Value(0);
  });
  sim.set_violation_collecting(true);
  for (int step = 0; !sim.terminated(1); ++step) {
    const bool may = sim.step_may_violate(1);
    const std::size_t before = sim.model_violations().size();
    sim.step(1);
    EXPECT_EQ(may, sim.model_violations().size() > before) << "step " << step;
  }
  EXPECT_EQ(sim.model_violations().size(), 6u);

  // A declared round budget makes every step may-violate: rounds are
  // entered inside the resumed body, where the pending op does not show.
  Sim rounds(1);
  rounds.set_max_rounds(1);
  rounds.spawn(0, [](Env&) -> Proc { co_return Value(0); });
  EXPECT_TRUE(rounds.step_may_violate(0));
}

TEST(SimExtra, EnvExposesStepCount) {
  Sim sim(1);
  const int r = sim.add_register("R", 0, kUnbounded, Value(0));
  std::vector<long> seen;
  sim.spawn(0, [r, &seen](Env& env) -> Proc {
    seen.push_back(env.steps());
    co_await env.write(r, Value(1));
    seen.push_back(env.steps());
    co_await env.read(r);
    seen.push_back(env.steps());
    co_return Value(0);
  });
  run_round_robin(sim);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], 1);  // after the start step
  EXPECT_EQ(seen[1], 2);
  EXPECT_EQ(seen[2], 3);
}

TEST(SimExtra, SingleRegisterModeEnforcesOwnership) {
  SimOptions opts;
  opts.n = 2;
  opts.single_register_per_process = true;
  Sim sim(std::move(opts));
  (void)sim.add_input_register("I0", 0);   // input registers are exempt
  (void)sim.add_register("R0", 0, 3, Value(0));
  EXPECT_THROW((void)sim.add_register("R0b", 0, 3, Value(0)), ModelError);
  (void)sim.add_register("R1", 1, 3, Value(0));  // other pid: fine
  (void)sim.add_input_register("I0b", 0);        // still exempt afterwards
}

TEST(SimExtra, MultiWriterRegistersWhenRequested) {
  // writer = -1 opts into MWMR semantics (used by tests and the Schenk-style
  // comparisons in related work); SWMR enforcement simply does not apply.
  Sim sim(2);
  const int r = sim.add_register("MW", /*writer=*/-1, 4, Value(0));
  for (int i = 0; i < 2; ++i) {
    sim.spawn(i, [r, i](Env& env) -> Proc {
      co_await env.write(r, Value(static_cast<std::uint64_t>(i) + 1));
      const OpResult got = co_await env.read(r);
      co_return got.value;
    });
  }
  run_round_robin(sim);
  EXPECT_TRUE(sim.terminated(0) && sim.terminated(1));
  EXPECT_EQ(sim.register_info(r).writes, 2);
}

TEST(SimExtra, TotalSendsAccounting) {
  Sim sim(2);
  sim.spawn(0, [](Env& env) -> Proc {
    co_await env.send(1, Value(1));
    co_await env.send(1, Value(2));
    co_return Value(0);
  });
  sim.spawn(1, [](Env& env) -> Proc {
    co_await env.recv();
    co_return Value(0);
  });
  run_round_robin(sim);
  EXPECT_EQ(sim.total_sends(), 2);  // counts sent, not just delivered
}

TEST(ErrorsExtra, LazyMessagesOnlyEvaluateOnFailure) {
  int evaluations = 0;
  const auto msg = [&] {
    ++evaluations;
    return std::string("boom");
  };
  usage_check(true, msg);
  model_check(true, msg);
  EXPECT_EQ(evaluations, 0);
  EXPECT_THROW(usage_check(false, msg), UsageError);
  EXPECT_EQ(evaluations, 1);
  EXPECT_THROW(model_check(false, msg), ModelError);
  EXPECT_EQ(evaluations, 2);
}

TEST(ExplorerExtra, DetectsNondeterministicFactories) {
  // The first build offers two runnable processes; every later build
  // crashes p1 up front, shrinking the choice sets. Replaying a recorded
  // prefix then references a choice that no longer exists, which the
  // replaying engines report as factory nondeterminism. (The serial
  // incremental engine builds the Sim exactly once, so it neither needs
  // nor checks factory determinism.)
  int calls = 0;
  auto make = [&]() {
    auto sim = std::make_unique<Sim>(2);
    const int r0 = sim->add_register("R0", 0, kUnbounded, Value(0));
    const int r1 = sim->add_register("R1", 1, kUnbounded, Value(0));
    auto body = [r0, r1](Env& env) -> Proc {
      co_await env.write(env.pid() == 0 ? r0 : r1, Value(1));
      co_return Value(0);
    };
    sim->spawn(0, body);
    sim->spawn(1, body);
    if (calls++ > 0) sim->crash(1);
    return sim;
  };
  const auto ignore = [](Sim&, const std::vector<Choice>&) {};
  {
    ReplayExplorer ex(ExploreOptions{.max_steps = 100});
    EXPECT_THROW(ex.explore(make, ignore), UsageError);
  }
  calls = 0;
  {
    // The parallel engine replays each subtree job's prefix into a fresh
    // Sim and must flag the mismatch the same way.
    Explorer ex(ExploreOptions{.max_steps = 100, .threads = 2});
    EXPECT_THROW(ex.explore(make, ignore), UsageError);
  }
}

// Register accounting is part of the checkpointed state: rewinding past a
// wide write must restore the register's max_bits_written watermark, or
// width audits over an exploration would smear the widest branch's usage
// onto every sibling schedule.
TEST(SimExtra, RewindRestoresMaxBitsWritten) {
  Sim sim(1);
  const int r = sim.add_register("R", 0, 4, Value(0));
  sim.set_checkpointing(true);
  sim.spawn(0, [r](Env& env) -> Proc {
    co_await env.write(r, Value(1));
    co_await env.write(r, Value(9));
    co_return Value(0);
  });
  sim.step(0);  // Start: run to the first write.
  sim.step(0);  // write 1 (1 bit)
  EXPECT_EQ(sim.register_info(r).max_bits_written, 1);
  sim.step(0);  // write 9 (4 bits)
  EXPECT_EQ(sim.register_info(r).max_bits_written, 4);
  sim.rewind(1);
  EXPECT_EQ(sim.register_info(r).max_bits_written, 1);
  sim.rewind(1);
  EXPECT_EQ(sim.register_info(r).max_bits_written, 0);
  // Re-taking the undone steps reproduces the same accounting.
  sim.step(0);
  sim.step(0);
  EXPECT_EQ(sim.register_info(r).max_bits_written, 4);
  EXPECT_EQ(sim.register_info(r).writes, 2);
}

// The rewind contract: a rewound process keeps its live coroutine frame, and
// a re-executed step either reuses it (same result) or rebuilds it through
// the kept prefix (different result). Process 0 writes its own register,
// reads process 1's register R, writes the value read plus 2, and decides
// the value read; process 1 writes 1 into R. Process 0's body counts its
// runs from the top (one per frame) and its resumes (one per step or
// replayed result).
struct Counts {
  long runs = 0;
  long resumes = 0;
};

std::unique_ptr<Sim> make_reader_sim(Counts* c, bool hashing = true) {
  auto sim = std::make_unique<Sim>(2);
  const int w = sim->add_register("W", 0, kUnbounded, Value());
  const int r = sim->add_register("R", 1, 1, Value(0));
  sim->set_checkpointing(true);
  if (hashing) sim->set_state_hashing(true);
  sim->spawn(0, [w, r, c](Env& env) -> Proc {
    ++c->runs;
    ++c->resumes;
    co_await env.write(w, Value(1));
    ++c->resumes;
    const OpResult x = co_await env.read(r);
    ++c->resumes;
    co_await env.write(w, Value(x.value.as_u64() + 2));
    ++c->resumes;
    co_return x.value;
  });
  sim->spawn(1, [r](Env& env) -> Proc {
    co_await env.write(r, Value(1));
    co_return Value(0);
  });
  return sim;
}

void expect_stats(const Sim& sim, const SimStats& want) {
  const SimStats got = sim.stats();
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.rewound, want.rewound);
  EXPECT_EQ(got.reused, want.reused);
  EXPECT_EQ(got.rebuilt, want.rebuilt);
  EXPECT_EQ(got.replayed, want.replayed);
}

void expect_same_process_state(const Sim& a, const Sim& b, Pid p) {
  EXPECT_EQ(a.terminated(p), b.terminated(p));
  EXPECT_EQ(a.steps(p), b.steps(p));
  const OpRequest& x = a.pending_request(p);
  const OpRequest& y = b.pending_request(p);
  EXPECT_EQ(x.kind, y.kind);
  EXPECT_EQ(x.reg, y.reg);
  EXPECT_EQ(x.value, y.value);
  if (a.terminated(p) && b.terminated(p)) {
    EXPECT_EQ(a.decision(p), b.decision(p));
  }
}

TEST(SimRewind, SameResultReusesTheFrameWithoutResuming) {
  Counts c;
  auto sim = make_reader_sim(&c);
  sim->step(0);  // Start: runs to the first write
  sim->step(0);  // write
  sim->step(0);  // read R = 0
  ASSERT_EQ(c.resumes, 3);
  sim->rewind(1);
  EXPECT_EQ(sim->pending_request(0).kind, OpKind::Read);
  sim->step(0);  // the same read, the same result
  EXPECT_EQ(c.runs, 1);
  EXPECT_EQ(c.resumes, 3) << "the kept frame must not be resumed again";
  expect_stats(*sim, {.steps = 4, .rewound = 1, .reused = 1});

  Counts ref_counts;
  auto ref = make_reader_sim(&ref_counts);
  for (int i = 0; i < 3; ++i) ref->step(0);
  expect_same_process_state(*sim, *ref, 0);
  EXPECT_EQ(sim->state_hash(), ref->state_hash());

  // The frame is back at the logical position: the next step resumes it.
  sim->step(0);
  ref->step(0);
  EXPECT_EQ(c.resumes, 4);
  expect_stats(*sim, {.steps = 5, .rewound = 1, .reused = 1});
  expect_same_process_state(*sim, *ref, 0);
  EXPECT_EQ(sim->decision(0), Value(0));
  EXPECT_EQ(sim->state_hash(), ref->state_hash());
}

TEST(SimRewind, DifferentResultRebuildsOnceThroughTheKeptPrefix) {
  Counts c;
  auto sim = make_reader_sim(&c);
  sim->step(0);
  sim->step(0);
  sim->step(0);  // read R = 0
  sim->rewind(1);
  EXPECT_EQ(c.runs, 1) << "rewind itself must not rebuild the coroutine";
  EXPECT_EQ(c.resumes, 3);
  sim->step(1);  // Start
  sim->step(1);  // R := 1
  sim->step(0);  // the re-executed read now returns 1
  EXPECT_EQ(c.runs, 2) << "exactly one rebuild";
  // The two kept results (Start and the first write) are replayed, then
  // the frame is resumed once with the new result.
  EXPECT_EQ(c.resumes, 3 + 2 + 1);
  expect_stats(*sim, {.steps = 6, .rewound = 1, .rebuilt = 1, .replayed = 2});
  sim->step(0);  // write 3
  EXPECT_EQ(sim->peek(0), Value(3));
  expect_stats(*sim, {.steps = 7, .rewound = 1, .rebuilt = 1, .replayed = 2});

  Counts ref_counts;
  auto ref = make_reader_sim(&ref_counts);
  for (const Pid p : {0, 0, 1, 1, 0, 0}) ref->step(p);
  expect_same_process_state(*sim, *ref, 0);
  expect_same_process_state(*sim, *ref, 1);
  EXPECT_EQ(sim->decision(0), Value(1));
  EXPECT_EQ(sim->state_hash(), ref->state_hash());
}

TEST(SimRewind, RewoundTerminationRevivesAndRestepRestoresDecision) {
  Counts c;
  auto sim = make_reader_sim(&c);
  for (int i = 0; i < 4; ++i) sim->step(0);
  ASSERT_TRUE(sim->terminated(0));
  sim->rewind(1);
  EXPECT_TRUE(sim->alive(0));
  EXPECT_FALSE(sim->terminated(0));
  const OpRequest& pending = sim->pending_request(0);
  EXPECT_EQ(pending.kind, OpKind::Write);
  EXPECT_EQ(pending.reg, 0);
  EXPECT_EQ(pending.value, Value(2));
  sim->step(0);
  ASSERT_TRUE(sim->terminated(0));
  EXPECT_EQ(sim->decision(0), Value(0));
  EXPECT_EQ(sim->peek(0), Value(2));
  EXPECT_EQ(c.runs, 1);
  EXPECT_EQ(c.resumes, 4);
  expect_stats(*sim, {.steps = 5, .rewound = 1, .reused = 1});
}

TEST(SimRewind, DisablingCheckpointingResyncsFramesLeftAhead) {
  Counts c;
  auto sim = make_reader_sim(&c, /*hashing=*/false);
  sim->step(0);  // Start
  sim->step(0);  // write 1
  sim->step(0);  // read R = 0
  sim->step(0);  // write 2
  sim->rewind(2);  // back to before the read
  sim->set_checkpointing(false);
  // One rebuild replays the two kept results (Start and the first write).
  EXPECT_EQ(c.runs, 2);
  EXPECT_EQ(c.resumes, 4 + 2);
  for (const Pid p : {1, 1, 0, 0}) sim->step(p);  // R := 1, then read 1
  EXPECT_EQ(c.resumes, 4 + 2 + 2);
  expect_stats(*sim, {.steps = 8, .rewound = 2, .rebuilt = 1, .replayed = 2});

  Counts ref_counts;
  auto ref = make_reader_sim(&ref_counts, /*hashing=*/false);
  for (const Pid p : {0, 0, 1, 1, 0, 0}) ref->step(p);
  expect_same_process_state(*sim, *ref, 0);
  EXPECT_EQ(sim->peek(0), ref->peek(0));
  EXPECT_EQ(sim->decision(0), Value(1));
}

// --- Differential walk: a rewound Sim against a fresh replay ---------------
//
// A seeded random walk of steps, crashes and rewinds. After every action the
// walked Sim must equal a fresh Sim that took only the walk's logical
// schedule: per process the pending request, termination, decision and
// crash flag, and globally the registers, channels and state hash (which
// must also equal its from-scratch recomputation). The walk models how far
// each live frame has run from the Sim's own counters, so it can count the
// cases it was written for and the tests can insist that each occurred.

using SimFactory = std::function<std::unique_ptr<Sim>()>;

void apply(Sim& sim, const Choice& c) {
  if (c.kind == Choice::Kind::Step) {
    sim.step(c.pid, c.recv_from);
  } else {
    sim.crash(c.pid);
  }
}

void expect_same_world(const Sim& sim, const Sim& ref) {
  EXPECT_EQ(sim.total_steps(), ref.total_steps());
  EXPECT_EQ(sim.total_sends(), ref.total_sends());
  for (Pid p = 0; p < ref.n(); ++p) {
    SCOPED_TRACE("process " + std::to_string(p));
    expect_same_process_state(sim, ref, p);
    EXPECT_EQ(sim.crashed(p), ref.crashed(p));
    EXPECT_EQ(sim.alive(p), ref.alive(p));
    EXPECT_EQ(sim.enabled(p), ref.enabled(p));
    EXPECT_EQ(sim.pending_request(p).regs, ref.pending_request(p).regs);
    EXPECT_EQ(sim.pending_request(p).peer, ref.pending_request(p).peer);
    for (Pid to = 0; to < ref.n(); ++to) {
      EXPECT_EQ(sim.channel(p, to), ref.channel(p, to));
      EXPECT_EQ(sim.channel_delivered(p, to), ref.channel_delivered(p, to));
    }
  }
  for (int r = 0; r < ref.num_registers(); ++r) {
    const Register& x = sim.register_info(r);
    const Register& y = ref.register_info(r);
    EXPECT_EQ(x.value, y.value);
    EXPECT_EQ(x.writes, y.writes);
    EXPECT_EQ(x.reads, y.reads);
    EXPECT_EQ(x.max_bits_written, y.max_bits_written);
  }
  if (sim.state_hashing()) {
    EXPECT_EQ(sim.state_hash(), zobrist::full_hash(sim));
    EXPECT_EQ(sim.state_hash(), ref.state_hash());
  }
}

/// The cases a walk exercised.
struct WalkCases {
  long crash_ahead = 0;       ///< Crashes of a process whose frame is ahead.
  long terminated_back = 0;   ///< Terminated processes rewound >= 2 steps.
  long recv_undo_ahead = 0;   ///< Recv steps undone with their frame ahead.
  long disable_ahead = 0;     ///< Checkpointing disabled, >= 2 frames ahead.
};

/// Walks `actions` random actions from `make`'s Sim (crash budget
/// `max_crashes`), then keeps walking until two frames are ahead, switches
/// checkpointing off there, and steps without crashes to a complete state,
/// so processes terminate both with and without checkpointing.
void walk_against_replay(const SimFactory& make, int max_crashes,
                         std::uint64_t seed, int actions, WalkCases& cases) {
  const auto fresh = [&] {
    std::unique_ptr<Sim> sim = make();
    sim->set_checkpointing(true);
    sim->set_state_hashing(true);
    return sim;
  };
  std::unique_ptr<Sim> sim = fresh();
  const ExploreOptions opts{.max_crashes = max_crashes};
  Rng rng(seed);
  std::vector<Choice> schedule;
  std::vector<Choice> cs;
  // frame[p]: steps p's live coroutine frame has taken.
  std::vector<long> frame(static_cast<std::size_t>(sim->n()), 0);
  const auto ahead = [&](Pid p) {
    return frame[static_cast<std::size_t>(p)] > sim->steps(p);
  };
  const auto frames_ahead = [&] {
    int count = 0;
    for (Pid p = 0; p < sim->n(); ++p) count += ahead(p) ? 1 : 0;
    return count;
  };
  const auto check = [&](const std::string& when) {
    SCOPED_TRACE("seed " + std::to_string(seed) + ", " + when);
    std::unique_ptr<Sim> ref = fresh();
    for (const Choice& c : schedule) apply(*ref, c);
    expect_same_world(*sim, *ref);
  };
  const auto take = [&](const Choice& c) {
    if (c.kind == Choice::Kind::Crash && ahead(c.pid)) ++cases.crash_ahead;
    const long reused = sim->stats().reused;
    apply(*sim, c);
    if (c.kind == Choice::Kind::Step && sim->stats().reused == reused) {
      frame[static_cast<std::size_t>(c.pid)] = sim->steps(c.pid);
    }
    schedule.push_back(c);
  };
  const auto crashes = [&] {
    return static_cast<int>(std::count_if(
        schedule.begin(), schedule.end(),
        [](const Choice& c) { return c.kind == Choice::Kind::Crash; }));
  };
  for (int a = 0; a < actions || (frames_ahead() < 2 && a < 4 * actions);
       ++a) {
    detail::legal_choices(*sim, crashes(), opts, cs);
    if (!schedule.empty() && (cs.empty() || rng.chance(1, 4))) {
      const std::size_t k = 1 + rng.below(schedule.size());
      std::vector<long> pos;
      for (Pid p = 0; p < sim->n(); ++p) pos.push_back(sim->steps(p));
      const std::vector<long> before = pos;
      for (std::size_t i = 1; i <= k; ++i) {
        const Choice& c = schedule[schedule.size() - i];
        if (c.kind == Choice::Kind::Crash) continue;
        long& at = pos[static_cast<std::size_t>(c.pid)];
        if (c.recv_from >= 0 && at < frame[static_cast<std::size_t>(c.pid)]) {
          ++cases.recv_undo_ahead;
        }
        at -= 1;
      }
      for (Pid p = 0; p < sim->n(); ++p) {
        const auto i = static_cast<std::size_t>(p);
        if (sim->terminated(p) && before[i] - pos[i] >= 2) {
          ++cases.terminated_back;
        }
      }
      sim->rewind(k);
      schedule.resize(schedule.size() - k);
    } else if (!cs.empty()) {
      take(cs[rng.below(cs.size())]);
    } else {
      return;  // an empty schedule with nothing enabled
    }
    check("action " + std::to_string(a));
    if (::testing::Test::HasFailure()) return;
  }
  if (frames_ahead() < 2) return;
  ++cases.disable_ahead;
  const long rebuilt = sim->stats().rebuilt;
  const int resynced = frames_ahead();
  sim->set_state_hashing(false);
  sim->set_checkpointing(false);
  EXPECT_EQ(sim->stats().rebuilt, rebuilt + resynced);
  for (Pid p = 0; p < sim->n(); ++p) {
    frame[static_cast<std::size_t>(p)] = sim->steps(p);
  }
  for (int a = 0;; ++a) {
    check("step " + std::to_string(a) + " without checkpointing");
    if (::testing::Test::HasFailure()) return;
    detail::legal_choices(*sim, crashes(), ExploreOptions{}, cs);
    if (cs.empty()) return;
    take(cs[rng.below(cs.size())]);
  }
}

/// Processes 1 and 2 each send process 0 two messages and wait for its
/// reply; process 0 takes all four from whichever sender the scheduler
/// picks, then replies to both with the order it saw.
std::unique_ptr<Sim> make_gather_sim() {
  auto sim = std::make_unique<Sim>(3);
  sim->spawn(0, [](Env& env) -> Proc {
    std::vector<Value> seen;
    for (int i = 0; i < 4; ++i) {
      const OpResult m = co_await env.recv();
      seen.emplace_back(static_cast<std::uint64_t>(m.from) * 10 +
                        m.value.as_u64());
    }
    const Value order(std::move(seen));
    co_await env.send(1, order);
    co_await env.send(2, order);
    co_return order;
  });
  for (const Pid p : {1, 2}) {
    sim->spawn(p, [](Env& env) -> Proc {
      co_await env.send(0, Value(1));
      co_await env.send(0, Value(2));
      const OpResult reply = co_await env.recv(0);
      co_return reply.value;
    });
  }
  return sim;
}

WalkCases walk_seeds(const SimFactory& make, int seeds, int actions) {
  WalkCases cases;
  for (int seed = 1; seed <= seeds; ++seed) {
    walk_against_replay(make, /*max_crashes=*/1,
                        0x5eed0000 + static_cast<std::uint64_t>(seed),
                        actions, cases);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(cases.crash_ahead, 0);
  EXPECT_GT(cases.terminated_back, 0);
  EXPECT_GT(cases.disable_ahead, 0);
  return cases;
}

TEST(SimRewindWalk, Alg1MatchesAFreshReplay) {
  walk_seeds(
      [] {
        auto sim = std::make_unique<Sim>(2);
        core::install_alg1(*sim, 3, {0, 1});
        return sim;
      },
      /*seeds=*/12, /*actions=*/150);
}

TEST(SimRewindWalk, FullInformationIcMatchesAFreshReplay) {
  walk_seeds(
      [] {
        auto sim = std::make_unique<Sim>(3);
        core::install_full_info_ic(*sim, 2, {Value(0), Value(1), Value(2)});
        return sim;
      },
      /*seeds=*/12, /*actions=*/150);
}

TEST(SimRewindWalk, RecvFromSeveralSendersMatchesAFreshReplay) {
  const WalkCases cases =
      walk_seeds(make_gather_sim, /*seeds=*/12, /*actions=*/150);
  EXPECT_GT(cases.recv_undo_ahead, 0);
}

}  // namespace
}  // namespace bsr::sim
