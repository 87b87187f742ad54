// Tests for the static interference analysis (analysis/static/interference.h)
// and its runtime consumers.
//
// Three layers:
//  1. Unit pins on `classify` — each independence rule and each dependence
//     veto, including the snapshot-members-are-reads footprint the
//     `demo-false-independence` canary exists to protect.
//  2. The analyzer plumbing — `analyze_interference` report shape, the
//     `static-interference` rule firing on exactly the canary's uncontended
//     register, and the `bsr lint --mode=interference` driver exit codes.
//  3. A dynamic commutation property test over EVERY registry protocol:
//     whenever the static relation calls two enabled choices independent,
//     executing them in either order must land the live Sim on the same
//     Zobrist state hash. This is the soundness statement the sleep-set POR
//     relies on, checked against the real simulator instead of on paper.
#include "analysis/static/interference.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/claims.h"
#include "analysis/lint.h"
#include "analysis/static/checker.h"
#include "sim/explore.h"
#include "sim/sim.h"

namespace bsr::analysis::itf {
namespace {

Footprint write_fp(int pid, int reg, bool may_violate = false) {
  Footprint fp;
  fp.pid = pid;
  fp.writes.push_back(reg);
  fp.may_violate = may_violate;
  return fp;
}

Footprint read_fp(int pid, int reg) {
  Footprint fp;
  fp.pid = pid;
  fp.reads.push_back(reg);
  return fp;
}

Footprint crash_fp(int pid) {
  Footprint fp;
  fp.pid = pid;
  fp.crash = true;
  return fp;
}

TEST(InterferenceClassify, SameProcessIsNeverIndependent) {
  // Program order: even touching disjoint registers, two ops of one process
  // never commute in the schedule (the second is not yet enabled).
  const Verdict v = classify(write_fp(0, 0), read_fp(0, 1));
  EXPECT_FALSE(v.independent);
  EXPECT_EQ(v.why, Verdict::Why::SameProcess);
}

TEST(InterferenceClassify, DisjointFootprintsCommute) {
  const Verdict v = classify(write_fp(0, 0), write_fp(1, 1));
  EXPECT_TRUE(v.independent);
  EXPECT_EQ(v.why, Verdict::Why::DisjointFootprints);
}

TEST(InterferenceClassify, WriteWriteAndWriteReadConflict) {
  const Verdict ww = classify(write_fp(0, 3), write_fp(1, 3));
  EXPECT_FALSE(ww.independent);
  EXPECT_EQ(ww.why, Verdict::Why::RegisterConflict);
  EXPECT_EQ(ww.reg, 3);

  const Verdict wr = classify(write_fp(0, 3), read_fp(1, 3));
  EXPECT_FALSE(wr.independent);
  EXPECT_EQ(wr.why, Verdict::Why::RegisterConflict);

  // Read/read sharing is no conflict: neither op changes the register.
  const Verdict rr = classify(read_fp(0, 3), read_fp(1, 3));
  EXPECT_TRUE(rr.independent);
}

TEST(InterferenceClassify, SnapshotMembersCountAsReads) {
  // The false-independence canary's core: a snapshot's member set is a read
  // set, so a write into any member conflicts.
  Footprint snap;
  snap.pid = 1;
  snap.reads = {2, 5, 7};
  const Verdict v = classify(write_fp(0, 5), snap);
  EXPECT_FALSE(v.independent);
  EXPECT_EQ(v.why, Verdict::Why::RegisterConflict);
  EXPECT_EQ(v.reg, 5);
}

TEST(InterferenceClassify, MayViolateVetoesIndependence) {
  // A write that may record a ModelEvent embeds the step index in the
  // violation log, so even register-disjoint pairs are order-sensitive.
  const Verdict v =
      classify(write_fp(0, 0, /*may_violate=*/true), write_fp(1, 1));
  EXPECT_FALSE(v.independent);
  EXPECT_EQ(v.why, Verdict::Why::MayViolate);
}

TEST(InterferenceClassify, CrashRules) {
  // Two crashes draw on the same adversary budget: swapping them is legal
  // but changes which crash consumes the last slot mid-path.
  const Verdict cc = classify(crash_fp(0), crash_fp(1));
  EXPECT_FALSE(cc.independent);
  EXPECT_EQ(cc.why, Verdict::Why::CrashBudget);

  // A crash commutes with another process's clean op: it only halts its
  // own process and touches no shared state.
  const Verdict cw = classify(crash_fp(0), write_fp(1, 0));
  EXPECT_TRUE(cw.independent);
  EXPECT_EQ(cw.why, Verdict::Why::CrashCommutes);

  // ... but not with an op that may record a violation.
  const Verdict cv = classify(crash_fp(0), write_fp(1, 0, true));
  EXPECT_FALSE(cv.independent);
}

TEST(InterferenceClassify, CrashPairsIgnoreAccessFields) {
  // The explorer builds a crash's peers without their register and channel
  // fields (detail::choice_footprint with `accesses` false): a pair with a
  // crash operand must be decided from pid, crash and may_violate alone.
  Footprint busy;
  busy.pid = 1;
  busy.reads = {0, 2};
  busy.writes = {1};
  busy.send_to = 0;
  Footprint bare;
  bare.pid = 1;
  for (const bool may_violate : {false, true}) {
    busy.may_violate = may_violate;
    bare.may_violate = may_violate;
    for (const int pid : {0, 1}) {
      const Verdict full = classify(crash_fp(pid), busy);
      const Verdict light = classify(crash_fp(pid), bare);
      EXPECT_EQ(full.independent, light.independent);
      EXPECT_EQ(full.why, light.why);
    }
  }
}

TEST(InterferenceClassify, ChannelRules) {
  Footprint send;
  send.pid = 0;
  send.send_to = 2;

  Footprint recv_any;
  recv_any.pid = 2;
  recv_any.is_recv = true;
  recv_any.recv_from = -1;  // drains whichever channel the scheduler picks

  Footprint recv_from_0 = recv_any;
  recv_from_0.recv_from = 0;

  Footprint recv_from_1 = recv_any;
  recv_from_1.recv_from = 1;

  EXPECT_FALSE(classify(send, recv_any).independent);
  EXPECT_FALSE(classify(send, recv_from_0).independent);
  // A receive pinned to a different sender's channel shares nothing with
  // the send.
  EXPECT_TRUE(classify(send, recv_from_1).independent);

  // Two sends into one receiver queue up on DIFFERENT per-sender FIFO
  // channels, so they commute.
  Footprint send2;
  send2.pid = 1;
  send2.send_to = 2;
  EXPECT_TRUE(classify(send, send2).independent);
}

TEST(InterferenceRender, ReasonsNameTheConflictRegister) {
  std::vector<ir::RegisterDecl> regs(4);
  regs[3].name = "R3";
  const Verdict v = classify(write_fp(0, 3), read_fp(1, 3));
  const std::string reason = render_reason(v, regs);
  EXPECT_NE(reason.find("R3"), std::string::npos) << reason;
}

// --- The demo-false-independence canary, statically -------------------------

TEST(InterferenceCanary, SnapshotReadMakesWritePairDependent) {
  const ProtocolSpec* spec = find_protocol("demo-false-independence");
  ASSERT_NE(spec, nullptr);
  const ir::ProtocolIR ir = spec->describe();
  const Report rep = analyze(ir);

  // Find the p0-write-fi.data × p1-snapshot pair: it must be dependent, and
  // dependent *through the register conflict* — the only thing connecting
  // the two ops is the snapshot's member read.
  bool found = false;
  for (const OpPair& p : rep.pairs) {
    const std::string& a = rep.ops[static_cast<std::size_t>(p.a)].label;
    const std::string& b = rep.ops[static_cast<std::size_t>(p.b)].label;
    const bool is_write_snap_pair =
        (a.find("write 'fi.data'") != std::string::npos &&
         b.find("snapshot") != std::string::npos) ||
        (b.find("write 'fi.data'") != std::string::npos &&
         a.find("snapshot") != std::string::npos);
    if (!is_write_snap_pair) continue;
    found = true;
    EXPECT_FALSE(p.verdict.independent) << a << " x " << b;
    EXPECT_EQ(p.verdict.why, Verdict::Why::RegisterConflict);
  }
  EXPECT_TRUE(found) << "canary lost its write x snapshot pair";

  // And the naive-analysis strawman, explicitly: strip the snapshot's read
  // set and the same pair classifies independent. This is the
  // misclassification the canary exists to catch.
  for (std::size_t i = 0; i < rep.ops.size(); ++i) {
    if (rep.ops[i].label.find("snapshot") == std::string::npos) continue;
    Footprint naive = rep.ops[i].fp;
    naive.reads.clear();
    Footprint w;
    w.pid = 0;
    w.writes.push_back(0);  // fi.data is register 0
    EXPECT_TRUE(classify(w, naive).independent)
        << "strawman no longer demonstrates the false independence";
  }
}

TEST(InterferenceCanary, ContendedRegistersSpareOnlyThePrivateOne) {
  const ProtocolSpec* spec = find_protocol("demo-false-independence");
  ASSERT_NE(spec, nullptr);
  const ir::ProtocolIR ir = spec->describe();
  const Report rep = analyze(ir);
  ASSERT_EQ(ir.registers.size(), 3u);
  const std::vector<bool> contended =
      contended_registers(rep, ir.registers.size());
  EXPECT_TRUE(contended[0]) << "fi.data: contended via the snapshot read";
  EXPECT_TRUE(contended[1]) << "fi.flag: ordinary read/write contention";
  EXPECT_FALSE(contended[2]) << "fi.private: only p0 ever touches it";
}

TEST(InterferenceCanary, AnalyzerWarnsOnExactlyThePrivateRegister) {
  const ProtocolSpec* spec = find_protocol("demo-false-independence");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport rep = analyze_interference(*spec);
  EXPECT_EQ(rep.mode, LintMode::Interference);
  EXPECT_GT(rep.interference_ops, 0);
  EXPECT_GT(rep.interference_pairs, 0);
  EXPECT_EQ(rep.errors(), 0);
  ASSERT_EQ(rep.warnings(), 1);
  const Diagnostic& d = rep.diagnostics.front();
  EXPECT_EQ(d.rule, "static-interference");
  EXPECT_EQ(d.reg_name, "fi.private");
}

TEST(InterferenceLint, ModeRunsCleanOverTheDefaultRegistry) {
  // The default sweep excludes demos, and no conforming protocol carries a
  // vacuously-bounded register, so interference mode must exit 0 with no
  // findings.
  LintOptions opts;
  opts.mode = LintMode::Interference;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_lint(opts, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("interference:"), std::string::npos);
  EXPECT_NE(out.str().find("0 error(s), 0 warning(s)"), std::string::npos);
}

TEST(InterferenceLint, CanaryWarnsButStillExitsZero) {
  LintOptions opts;
  opts.mode = LintMode::Interference;
  opts.protocols = {"demo-false-independence"};
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_lint(opts, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("static-interference"), std::string::npos);
  EXPECT_NE(out.str().find("fi.private"), std::string::npos);
}

// --- Dynamic commutation: the relation vs the live simulator ----------------

/// Applies one scheduling choice to a checkpointing Sim.
void apply(sim::Sim& sim, const sim::Choice& c, int& crashes) {
  if (c.kind == sim::Choice::Kind::Step) {
    sim.step(c.pid, c.recv_from);
  } else {
    sim.crash(c.pid);
    ++crashes;
  }
}

/// Random walk over one protocol's schedules; at every position where two
/// enabled choices are statically independent, executes both orders and
/// asserts the Zobrist state hashes agree. Adds the number of swaps checked
/// to `swaps`.
void commutation_walk(const ProtocolSpec& spec, std::uint64_t seed,
                      long& swaps) {
  auto sim = spec.factory();
  ASSERT_NE(sim, nullptr);
  ASSERT_EQ(sim->total_steps(), 0);  // checkpointing needs an unstepped Sim
  sim->set_violation_collecting(true);  // demos violate by design
  sim->set_checkpointing(true);
  sim->set_state_hashing(true);
  std::mt19937_64 rng(seed);
  sim::ExploreOptions opts = spec.explore;
  int crashes = 0;
  std::vector<sim::Choice> cs;
  for (int pos = 0; pos < 60; ++pos) {
    sim::detail::legal_choices(*sim, crashes, opts, cs);
    if (cs.empty()) break;

    // Check every independent pair available here (both orders).
    for (std::size_t i = 0; i < cs.size(); ++i) {
      for (std::size_t j = i + 1; j < cs.size(); ++j) {
        if (!sim::detail::independent(*sim, cs[i], cs[j])) continue;
        const int crashes_before = crashes;
        apply(*sim, cs[i], crashes);
        apply(*sim, cs[j], crashes);
        const std::uint64_t ij = sim->state_hash();
        sim->rewind(2);
        crashes = crashes_before;
        apply(*sim, cs[j], crashes);
        apply(*sim, cs[i], crashes);
        const std::uint64_t ji = sim->state_hash();
        EXPECT_EQ(ij, ji) << spec.name << ": choices " << i << "/" << j
                          << " at position " << pos << " do not commute";
        sim->rewind(2);
        crashes = crashes_before;
        ++swaps;
      }
    }

    apply(*sim, cs[rng() % cs.size()], crashes);
  }
}

TEST(InterferenceCommutation, IndependentChoicesCommuteOnEveryProtocol) {
  long total = 0;
  for (const ProtocolSpec& spec : builtin_protocols()) {
    if (!spec.factory) continue;
    SCOPED_TRACE(spec.name);
    for (const std::uint64_t seed : {1u, 2u}) {
      commutation_walk(spec, seed, total);
    }
  }
  // The property test is vacuous if the walk never finds independent pairs.
  EXPECT_GT(total, 0);
}

TEST(InterferenceCommutation, CrashStepSwapsCommuteUnderACrashBudget) {
  // Re-walk alg1 with a crash budget so crash x step independence (the
  // CrashCommutes rule) is exercised even though the spec's own exploration
  // options are crash-free.
  const ProtocolSpec* spec = find_protocol("alg1");
  ASSERT_NE(spec, nullptr);
  ProtocolSpec crashy = *spec;
  crashy.explore.max_crashes = 1;
  long swaps = 0;
  commutation_walk(crashy, 7, swaps);
  EXPECT_GT(swaps, 0);
}

}  // namespace
}  // namespace bsr::analysis::itf
