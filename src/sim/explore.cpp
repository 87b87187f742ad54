#include "sim/explore.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "sim/explore_parallel.h"
#include "sim/tt.h"
#include "util/errors.h"

namespace bsr::sim {

int resolve_explore_threads(int requested) {
  if (requested > 0) return requested;
  const char* env = std::getenv(kExploreThreadsEnv);
  if (env == nullptr || *env == '\0') return 1;
  const std::string s(env);
  unsigned hw = 0;
  if (s == "auto" || s == "0") {
    hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    usage_check(pos == s.size() && v > 0, "");
    return v;
  } catch (...) {
    throw UsageError(std::string(kExploreThreadsEnv) + "='" + s +
                     "': expected a positive integer, 0, or 'auto'");
  }
}

namespace detail {
namespace {

/// Exact runtime mirror of Sim::do_write's violation checks for a pending
/// write of `v` into `reg` by `pid` (the value is known, so this is not an
/// approximation). Any condition that would make do_write record a
/// ModelEvent — or throw ModelError outside collect mode — makes the op
/// order-sensitive.
bool write_may_violate(const Sim& sim, Pid pid, int reg, const Value& v) {
  if (reg < 0 || reg >= sim.num_registers()) return true;
  const Register& r = sim.register_info(reg);
  if (r.writer != -1 && r.writer != pid) return true;  // Swmr
  if (r.write_once && r.writes != 0) return true;      // WriteOnce
  if (r.width_bits != kUnbounded) {
    if (!v.is_u64()) return true;  // Width (non-integer)
    if (v.bit_width() > r.width_bits) return true;  // Width (overflow)
    const std::uint64_t limit =
        (std::uint64_t{1} << r.width_bits) - (r.allows_bottom ? 2 : 1);
    if (v.as_u64() > limit) return true;  // Bottom (⊥ code point)
  }
  return false;
}

void add_sorted(std::vector<int>& v, int x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}

}  // namespace

void choice_footprint(const Sim& sim, const Choice& c,
                      analysis::itf::Footprint& fp) {
  // Reset every field, keeping the register vectors' buffers.
  std::vector<int> reads;
  std::vector<int> writes;
  reads.swap(fp.reads);
  writes.swap(fp.writes);
  reads.clear();
  writes.clear();
  fp = analysis::itf::Footprint{
      .pid = c.pid, .reads = std::move(reads), .writes = std::move(writes)};
  if (c.kind == Choice::Kind::Crash) {
    fp.crash = true;
    return;
  }
  const OpRequest& req = sim.pending_request(c.pid);
  switch (req.kind) {
    case OpKind::Start:
      break;  // resumes the body to its first op: local computation only
    case OpKind::Read:
      add_sorted(fp.reads, req.reg);
      break;
    case OpKind::Write:
      add_sorted(fp.writes, req.reg);
      fp.may_violate = write_may_violate(sim, c.pid, req.reg, req.value);
      break;
    case OpKind::Snapshot:
      for (const int r : req.regs) add_sorted(fp.reads, r);
      break;
    case OpKind::WriteSnap:
      add_sorted(fp.writes, req.reg);
      for (const int r : req.regs) add_sorted(fp.reads, r);
      fp.may_violate = write_may_violate(sim, c.pid, req.reg, req.value);
      break;
    case OpKind::Send:
      fp.send_to = req.peer;
      fp.may_violate = !sim.can_send(c.pid, req.peer);  // Topology
      break;
    case OpKind::Recv:
      fp.is_recv = true;
      fp.recv_from = c.recv_from;
      break;
  }
  // Round events fire inside the resumed body (Env::note_round), invisible
  // from the pending op, so a declared budget makes every step
  // order-sensitive. Blunt but sound; round-budgeted registry protocols
  // are sampled, never explored exhaustively.
  if (sim.max_rounds() >= 0) fp.may_violate = true;
}

bool independent(const Sim& sim, const Choice& a, const Choice& b) {
  analysis::itf::Footprint fa;
  analysis::itf::Footprint fb;
  choice_footprint(sim, a, fa);
  choice_footprint(sim, b, fb);
  return analysis::itf::classify(fa, fb).independent;
}

void legal_choices(const Sim& sim, int crashes_so_far,
                   const ExploreOptions& opts, std::vector<Choice>& out) {
  out.clear();
  for (Pid p = 0; p < sim.n(); ++p) {
    if (!sim.enabled(p)) continue;
    const std::vector<Pid> sources = sim.recv_choices(p);
    if (sources.empty()) {
      out.push_back(Choice{Choice::Kind::Step, p, -1});
    } else {
      for (Pid from : sources) {
        out.push_back(Choice{Choice::Kind::Step, p, from});
      }
    }
  }
  if (crashes_so_far < opts.max_crashes) {
    for (Pid p = 0; p < sim.n(); ++p) {
      if (sim.alive(p)) out.push_back(Choice{Choice::Kind::Crash, p, -1});
    }
  }
}

std::unique_ptr<Sim> fresh_sim(const Explorer::Factory& make,
                               const ExploreOptions& opts) {
  std::unique_ptr<Sim> sim = make();
  usage_check(sim != nullptr, "Explorer: factory returned null");
  usage_check(sim->total_steps() == 0,
              "Explorer: factory returned a Sim that has already stepped; "
              "spawn its processes without stepping them (the explorer "
              "schedules every step, Start steps included)");
  sim->set_checkpointing(true);
  if (opts.tt != nullptr) sim->set_state_hashing(true);
  return sim;
}

long incremental_dfs(Sim& sim, const ExploreOptions& opts, long depth_limit,
                     DfsCursor& cursor, const DfsLeafFn& leaf) {
  usage_check(sim.checkpointing(),
              "incremental_dfs: Sim checkpointing must be enabled");
  TranspositionTable* const tt = opts.tt.get();
  usage_check(tt == nullptr || sim.state_hashing(),
              "incremental_dfs: transposition table requires "
              "Sim::set_state_hashing");
  // Without POR the table memoizes each node's schedule count; under POR it
  // only deduplicates complete states.
  TranspositionTable* const counts = opts.por ? nullptr : tt;
  usage_check(counts == nullptr || depth_limit < 0,
              "incremental_dfs: a transposition table cannot count the "
              "schedules of a depth-limited search");

  struct Frame {
    std::vector<Choice> cs;   ///< Choices at this depth.
    std::size_t next = 0;     ///< Next untried index.
    int crashes_before = 0;   ///< cursor.crashes before any choice here.
    long steps_before = 0;    ///< cursor.steps before any choice here.
    /// POR: this node's sleep set — choices whose subtrees are owned by
    /// sibling branches. Seeded from the parent when the frame is entered;
    /// grows by each completed child.
    std::vector<Choice> sleep;
    /// Counting: this node's state hash, and the schedules covered when the
    /// search entered it.
    std::uint64_t hash = 0;
    long covered_before = 0;
  };
  // frames[0, depth) is the current path. A frame outlives its depth: when
  // the search backs out of it, it keeps its vectors, and the next node at
  // that depth refills them in place, so the search allocates only while
  // it reaches depths and widths it has not reached before.
  std::vector<Frame> frames;
  std::size_t depth = 0;
  // Counting: frames[0, open) were entered and are not published yet; those
  // at or past `depth` were backed out of because every remaining child was
  // memoized.
  std::size_t open = 0;
  std::vector<std::size_t> idx;  // chosen index per depth since the root
  // POR scratch, reused by every advance: the child's sleep set under
  // construction, and the footprints of the candidate and of one sleeper.
  std::vector<Choice> child_sleep;
  analysis::itf::Footprint cand_fp;
  analysis::itf::Footprint peer_fp;
  // Schedules covered so far: leaves reached plus memoized subtree counts.
  long covered = 0;
  // Counting: the state just entered is claimed by a search that has not
  // published its count yet (another worker still exploring it, or a search
  // that stopped early). It is explored again; if complete, it counts
  // without a visit, since its claimer visited it.
  bool revisit = false;

  // The root is claimed too, so a table shared across explore calls (or
  // parallel jobs converging on one subtree root) memoizes whole searches.
  if (counts != nullptr) {
    const TranspositionTable::Claim root = counts->claim(sim.state_hash());
    if (!root.first) {
      if (root.count != TranspositionTable::kPending) return root.count;
      revisit = true;
    }
  }

  const auto asleep = [](const Frame& f, const Choice& c) {
    return std::find(f.sleep.begin(), f.sleep.end(), c) != f.sleep.end();
  };

  // Applies the frame's next untried choice. When counting, a child whose
  // state the table holds with a published count adds that count and is
  // rewound at once: its subtree was explored before (the first visitor of
  // a state explores its whole subtree before publishing, and a repeat can
  // never be a state still on the current path — histories grow
  // monotonically along it). Under POR it skips sleeping choices instead
  // (their interleavings commute into branches explored elsewhere). Returns
  // false when every remaining sibling was memoized, asleep, or exhausted,
  // in which case the frame holds no applied choice.
  const auto advance = [&](Frame& f) {
    while (f.next < f.cs.size()) {
      const Choice& c = f.cs[f.next];
      idx.back() = f.next;
      f.next += 1;
      child_sleep.clear();
      if (opts.por) {
        if (asleep(f, c)) continue;
        // The child inherits every sleeping choice that commutes with `c`:
        // such a choice is still enabled below `c` (independence preserves
        // enabledness), its pending op is unchanged (same-pid pairs are
        // never independent), and its subtree still commutes into the
        // sibling branch that owns it.
        if (!f.sleep.empty()) {
          choice_footprint(sim, c, cand_fp);
          for (const Choice& d : f.sleep) {
            choice_footprint(sim, d, peer_fp);
            if (analysis::itf::classify(peer_fp, cand_fp).independent) {
              child_sleep.push_back(d);
            }
          }
        }
      }
      if (c.kind == Choice::Kind::Step) {
        sim.step(c.pid, c.recv_from);
        cursor.steps += 1;
      } else {
        sim.crash(c.pid);
        cursor.crashes += 1;
      }
      cursor.schedule.push_back(c);
      if (counts != nullptr) {
        const TranspositionTable::Claim claim =
            counts->claim(sim.state_hash());
        if (!claim.first) {
          if (claim.count == TranspositionTable::kPending) {
            revisit = true;
          } else {
            add_schedules(covered, claim.count);
            sim.rewind(1);
            cursor.schedule.pop_back();
            cursor.crashes = f.crashes_before;
            cursor.steps = f.steps_before;
            continue;
          }
        }
      }
      if (opts.por) cursor.sleep.swap(child_sleep);
      return true;
    }
    return false;
  };

  while (true) {
    // Descend greedily along first surviving choices until a leaf: a
    // complete state (no legal choices) or the depth limit. A node all of
    // whose children are memoized is no leaf — their schedules are already
    // covered — so fall through to backtracking.
    bool at_leaf = true;
    while (depth_limit < 0 || static_cast<long>(depth) < depth_limit) {
      if (depth == frames.size()) frames.emplace_back();
      Frame& f = frames[depth];
      legal_choices(sim, cursor.crashes, opts, f.cs);
      if (f.cs.empty()) break;
      usage_check(cursor.steps < opts.max_steps,
                  "Explorer: execution exceeded max_steps; "
                  "protocol may not terminate");
      f.next = 0;
      f.crashes_before = cursor.crashes;
      f.steps_before = cursor.steps;
      // The node's sleep set moves into the frame; the cursor keeps the
      // frame's old buffer, emptied.
      f.sleep.swap(cursor.sleep);
      cursor.sleep.clear();
      ++depth;
      if (counts != nullptr) {
        f.hash = sim.state_hash();
        f.covered_before = covered;
        open = depth;
        revisit = false;
      }
      idx.push_back(0);
      if (!advance(f)) {
        --depth;
        idx.pop_back();
        at_leaf = false;
        break;
      }
    }

    if (at_leaf) {
      add_schedules(covered, 1);
      // With a table each final configuration is visited once. Under POR the
      // table sees complete states only, and a repeated one counts without a
      // visit.
      bool visit = true;
      if (tt != nullptr) {
        visit = opts.por ? tt->claim(sim.state_hash()).first : !revisit;
        revisit = false;
      }
      if (visit && leaf(sim, cursor.schedule, idx)) return covered;
    }

    // Backtrack: the deepest frame with an untried sibling that survives
    // the table probe.
    while (true) {
      std::size_t t = depth;
      while (t > 0 && frames[t - 1].next >= frames[t - 1].cs.size()) --t;
      // Every node below frame t - 1 is fully explored: publish its count.
      if (counts != nullptr) {
        for (; open > t; --open) {
          const Frame& done = frames[open - 1];
          counts->publish(done.hash, covered - done.covered_before);
        }
      }
      if (t == 0) return covered;

      // Rewind the world from the current depth to that frame's state, then
      // take the sibling. This is the incremental-backtracking core: only
      // the undone suffix is paid for, never the whole prefix.
      const std::size_t base = cursor.schedule.size() - depth;
      sim.rewind(cursor.schedule.size() - (base + t - 1));
      cursor.schedule.resize(base + t - 1);
      depth = t;
      idx.resize(t);
      Frame& f = frames[t - 1];
      cursor.crashes = f.crashes_before;
      cursor.steps = f.steps_before;
      // The child just backed out of is fully explored: later siblings may
      // skip any interleaving that merely reorders it across independent
      // steps, so it joins this node's sleep set (Godefroid's sleep-set
      // discipline — siblings inherit completed siblings).
      if (opts.por) f.sleep.push_back(f.cs[idx[t - 1]]);
      if (advance(f)) break;
      --depth;
      idx.pop_back();
    }
  }
}

}  // namespace detail

long Explorer::explore(const Factory& make, const Visitor& visit) const {
  return explore_until(make, [&](Sim& sim, const std::vector<Choice>& sched) {
    visit(sim, sched);
    return false;
  });
}

long Explorer::explore_until(const Factory& make,
                             const StoppingVisitor& visit) const {
  const int threads = resolve_explore_threads(opts_.threads);
  if (threads > 1) {
    return ParallelExplorer(opts_, threads).explore_until(make, visit);
  }
  return explore_serial(make, visit);
}

long Explorer::explore_serial(const Factory& make,
                              const StoppingVisitor& visit) const {
  std::unique_ptr<Sim> sim = detail::fresh_sim(make, opts_);
  detail::DfsCursor cursor;
  return detail::incremental_dfs(
      *sim, opts_, -1, cursor,
      [&](Sim& s, const std::vector<Choice>& schedule,
          const std::vector<std::size_t>&) { return visit(s, schedule); });
}

}  // namespace bsr::sim
