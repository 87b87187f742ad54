#include "sim/sim.h"

#include <gtest/gtest.h>

#include "util/errors.h"

namespace bsr::sim {
namespace {

TEST(Sim, WriteThenReadSingleProcess) {
  Sim sim(1);
  const int r = sim.add_register("R", 0, kUnbounded, Value());
  sim.spawn(0, [r](Env& env) -> Proc {
    co_await env.write(r, Value(7));
    const OpResult got = co_await env.read(r);
    co_return got.value;
  });
  sim.step(0);  // start
  sim.step(0);  // write
  EXPECT_EQ(sim.peek(r).as_u64(), 7u);
  sim.step(0);  // read; coroutine then returns
  ASSERT_TRUE(sim.terminated(0));
  EXPECT_EQ(sim.decision(0).as_u64(), 7u);
  EXPECT_EQ(sim.steps(0), 3);
}

TEST(Sim, InterleavingIsSchedulerControlled) {
  Sim sim(2);
  const int r0 = sim.add_register("R0", 0, 1, Value(0));
  const int r1 = sim.add_register("R1", 1, 1, Value(0));
  auto body = [r0, r1](Env& env) -> Proc {
    const int mine = env.pid() == 0 ? r0 : r1;
    const int theirs = env.pid() == 0 ? r1 : r0;
    co_await env.write(mine, Value(1));
    const OpResult got = co_await env.read(theirs);
    co_return got.value;
  };
  sim.spawn(0, body);
  sim.spawn(1, body);
  // p0 runs solo first: writes 1, reads 0 from p1's register.
  sim.step(0);
  sim.step(0);
  sim.step(0);
  // then p1 runs: writes 1, reads 1.
  sim.step(1);
  sim.step(1);
  sim.step(1);
  EXPECT_EQ(sim.decision(0).as_u64(), 0u);
  EXPECT_EQ(sim.decision(1).as_u64(), 1u);
}

TEST(Sim, SwmrOwnershipEnforced) {
  Sim sim(2);
  const int r0 = sim.add_register("R0", 0, kUnbounded, Value());
  sim.spawn(1, [r0](Env& env) -> Proc {
    co_await env.write(r0, Value(1));
    co_return Value(0);
  });
  sim.step(1);
  EXPECT_THROW(sim.step(1), ModelError);
  EXPECT_FALSE(sim.alive(1));  // a throwing process is stopped
}

TEST(Sim, BoundedWidthEnforced) {
  Sim sim(1);
  const int r = sim.add_register("R", 0, 2, Value(0));
  sim.spawn(0, [r](Env& env) -> Proc {
    co_await env.write(r, Value(3));  // fits: 2 bits
    co_await env.write(r, Value(4));  // 3 bits: model violation
    co_return Value(0);
  });
  sim.step(0);
  sim.step(0);
  EXPECT_EQ(sim.peek(r).as_u64(), 3u);
  EXPECT_THROW(sim.step(0), ModelError);
}

TEST(Sim, BoundedRegisterRejectsStructuredValues) {
  Sim sim(1);
  const int r = sim.add_register("R", 0, 8, Value(0));
  sim.spawn(0, [r](Env& env) -> Proc {
    co_await env.write(r, make_vec(Value(1)));
    co_return Value(0);
  });
  sim.step(0);
  EXPECT_THROW(sim.step(0), ModelError);
}

TEST(Sim, BadInitialValueRejected) {
  Sim sim(1);
  EXPECT_THROW(sim.add_register("R", 0, 1, Value(2)), ModelError);
  EXPECT_THROW(sim.add_register("R", 0, 1, Value()), ModelError);
}

TEST(Sim, WriteOnceInputRegister) {
  Sim sim(1);
  const int i0 = sim.add_input_register("I0", 0);
  sim.spawn(0, [i0](Env& env) -> Proc {
    co_await env.write(i0, Value("input"));
    co_await env.write(i0, Value("again"));
    co_return Value(0);
  });
  sim.step(0);
  sim.step(0);
  EXPECT_THROW(sim.step(0), ModelError);
  EXPECT_EQ(sim.peek(i0).as_bytes(), "input");
}

TEST(Sim, SnapshotReadsAtomically) {
  Sim sim(2);
  const int r0 = sim.add_register("R0", 0, kUnbounded, Value(0));
  const int r1 = sim.add_register("R1", 1, kUnbounded, Value(0));
  sim.spawn(0, [&](Env& env) -> Proc {
    std::vector<int> rs;
    rs.push_back(r0);
    rs.push_back(r1);
    const OpResult snap = co_await env.snapshot(rs);
    co_return snap.value;
  });
  sim.spawn(1, [&](Env& env) -> Proc {
    co_await env.write(r1, Value(9));
    co_return Value(0);
  });
  sim.step(1);
  sim.step(1);  // p1 writes 9 and terminates
  sim.step(0);
  sim.step(0);  // p0 snapshots
  const Value v = sim.decision(0);
  EXPECT_EQ(v.at(0).as_u64(), 0u);
  EXPECT_EQ(v.at(1).as_u64(), 9u);
}

TEST(Sim, ImmediateSnapshotBlockSeesAllWrites) {
  Sim sim(3);
  std::vector<int> regs;
  for (int i = 0; i < 3; ++i) {
    regs.push_back(sim.add_register("M" + std::to_string(i), i, kUnbounded,
                                    Value()));
  }
  for (int i = 0; i < 3; ++i) {
    sim.spawn(i, [&, i](Env& env) -> Proc {
      const OpResult snap =
          co_await env.write_snapshot(regs[static_cast<std::size_t>(i)],
                                      Value(100 + i), regs);
      co_return snap.value;
    });
  }
  for (int i = 0; i < 3; ++i) sim.step(i);  // starts
  sim.step_block({0, 2});                   // block of two
  sim.step(1);                              // then p1 alone
  // Block members see each other but not p1.
  for (int i : {0, 2}) {
    const Value& v = sim.decision(i);
    EXPECT_EQ(v.at(0).as_u64(), 100u);
    EXPECT_TRUE(v.at(1).is_bottom());
    EXPECT_EQ(v.at(2).as_u64(), 102u);
  }
  // p1, later, sees everyone.
  EXPECT_EQ(sim.decision(1).at(1).as_u64(), 101u);
  EXPECT_EQ(sim.decision(1).at(0).as_u64(), 100u);
  EXPECT_EQ(sim.decision(1).at(2).as_u64(), 102u);
}

TEST(Sim, SendRecvFifoPerChannel) {
  Sim sim(2);
  sim.spawn(0, [](Env& env) -> Proc {
    co_await env.send(1, Value(1));
    co_await env.send(1, Value(2));
    co_return Value(0);
  });
  sim.spawn(1, [](Env& env) -> Proc {
    const OpResult a = co_await env.recv();
    const OpResult b = co_await env.recv();
    EXPECT_EQ(a.from, 0);
    co_return make_vec(a.value, b.value);
  });
  sim.step(0);
  sim.step(0);
  sim.step(0);
  sim.step(1);
  EXPECT_TRUE(sim.enabled(1));
  EXPECT_EQ(sim.channel_size(0, 1), 2u);
  sim.step(1);
  sim.step(1);
  const Value v = sim.decision(1);
  EXPECT_EQ(v.at(0).as_u64(), 1u);
  EXPECT_EQ(v.at(1).as_u64(), 2u);
}

TEST(Sim, RecvBlocksUntilMessageAvailable) {
  Sim sim(2);
  sim.spawn(0, [](Env& env) -> Proc {
    const OpResult m = co_await env.recv();
    co_return m.value;
  });
  sim.spawn(1, [](Env& env) -> Proc {
    co_await env.send(0, Value(5));
    co_return Value(0);
  });
  sim.step(0);  // start; now blocked on recv
  EXPECT_FALSE(sim.enabled(0));
  EXPECT_TRUE(sim.alive(0));
  sim.step(1);
  sim.step(1);  // send
  EXPECT_TRUE(sim.enabled(0));
  std::vector<Pid> senders{7, 8};  // stale contents are replaced
  sim.recv_choices(0, senders);
  EXPECT_EQ(senders, std::vector<Pid>{1});
  sim.step(0);
  EXPECT_EQ(sim.decision(0).as_u64(), 5u);
}

TEST(Sim, TopologyRestrictsSends) {
  SimOptions opts;
  opts.n = 3;
  opts.edges = {{1}, {2}, {0}};  // directed 3-cycle
  Sim sim(std::move(opts));
  sim.spawn(0, [](Env& env) -> Proc {
    co_await env.send(2, Value(1));  // no link 0 -> 2
    co_return Value(0);
  });
  sim.step(0);
  EXPECT_THROW(sim.step(0), ModelError);
}

TEST(Sim, NestedTasksPerformOps) {
  Sim sim(1);
  const int r = sim.add_register("R", 0, kUnbounded, Value(0));

  struct Helper {
    static Task<std::uint64_t> bump(Env& env, int reg) {
      const OpResult cur = co_await env.read(reg);
      const std::uint64_t next = cur.value.as_u64() + 1;
      co_await env.write(reg, Value(next));
      co_return next;
    }
  };

  sim.spawn(0, [r](Env& env) -> Proc {
    std::uint64_t last = 0;
    for (int i = 0; i < 3; ++i) last = co_await Helper::bump(env, r);
    co_return Value(last);
  });
  sim.step(0);  // start
  for (int i = 0; i < 6; ++i) sim.step(0);
  ASSERT_TRUE(sim.terminated(0));
  EXPECT_EQ(sim.decision(0).as_u64(), 3u);
  EXPECT_EQ(sim.peek(r).as_u64(), 3u);
}

TEST(Sim, TaskExceptionPropagatesToParent) {
  Sim sim(1);
  struct Helper {
    static Task<void> thrower(Env&) {
      throw ModelError("inner failure");
      co_return;  // unreachable; makes this a coroutine
    }
  };
  sim.spawn(0, [](Env& env) -> Proc {
    bool caught = false;
    try {
      co_await Helper::thrower(env);
    } catch (const ModelError&) {
      caught = true;
    }
    co_return Value(caught ? 1 : 0);
  });
  sim.step(0);
  ASSERT_TRUE(sim.terminated(0));
  EXPECT_EQ(sim.decision(0).as_u64(), 1u);
}

TEST(Sim, CrashStopsProcess) {
  Sim sim(2);
  const int r = sim.add_register("R", 0, kUnbounded, Value(0));
  sim.spawn(0, [r](Env& env) -> Proc {
    co_await env.write(r, Value(1));
    co_await env.write(r, Value(2));
    co_return Value(0);
  });
  sim.spawn(1, [r](Env& env) -> Proc {
    const OpResult got = co_await env.read(r);
    co_return got.value;
  });
  sim.step(0);
  sim.step(0);  // p0 writes 1
  sim.crash(0);
  EXPECT_FALSE(sim.enabled(0));
  EXPECT_TRUE(sim.crashed(0));
  EXPECT_THROW(sim.step(0), UsageError);
  sim.step(1);
  sim.step(1);
  EXPECT_EQ(sim.decision(1).as_u64(), 1u);  // crash left the first write
}

TEST(Sim, TraceRecordsSteps) {
  SimOptions opts;
  opts.n = 1;
  opts.record_trace = true;
  Sim sim(std::move(opts));
  const int r = sim.add_register("R", 0, kUnbounded, Value(0));
  sim.spawn(0, [r](Env& env) -> Proc {
    co_await env.write(r, Value(1));
    co_await env.read(r);
    co_return Value(0);
  });
  sim.step(0);
  sim.step(0);
  sim.step(0);
  ASSERT_EQ(sim.trace().size(), 3u);
  EXPECT_EQ(sim.trace()[0].request.kind, OpKind::Start);
  EXPECT_EQ(sim.trace()[1].request.kind, OpKind::Write);
  EXPECT_EQ(sim.trace()[2].request.kind, OpKind::Read);
  EXPECT_EQ(sim.trace()[2].result.value.as_u64(), 1u);
}

TEST(Sim, RegisterAccountingTracksUsage) {
  Sim sim(1);
  const int r = sim.add_register("R", 0, 6, Value(0));
  sim.spawn(0, [r](Env& env) -> Proc {
    co_await env.write(r, Value(5));
    co_await env.write(r, Value(63));
    co_await env.read(r);
    co_return Value(0);
  });
  for (int i = 0; i < 4; ++i) sim.step(0);
  const Register& info = sim.register_info(r);
  EXPECT_EQ(info.writes, 2);
  EXPECT_EQ(info.reads, 1);
  EXPECT_EQ(info.max_bits_written, 6);
  EXPECT_EQ(sim.max_bounded_bits_used(), 6);
}

TEST(Sim, RegisterWordRendersContents) {
  Sim sim(1);
  const int a = sim.add_register("A", 0, 2, Value(1));
  const int b = sim.add_register("B", 0, 2, Value(2));
  sim.spawn(0, [](Env&) -> Proc { co_return Value(0); });
  EXPECT_EQ(sim.register_word({a, b}), "1|2|");
}

TEST(Sim, DecisionBeforeTerminationThrows) {
  Sim sim(1);
  sim.spawn(0, [](Env& env) -> Proc {
    co_await env.recv();
    co_return Value(0);
  });
  EXPECT_THROW((void)sim.decision(0), UsageError);
}

}  // namespace
}  // namespace bsr::sim
