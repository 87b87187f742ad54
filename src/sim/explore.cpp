#include "sim/explore.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

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

void add_sorted(std::vector<int>& v, int x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}

}  // namespace

void choice_footprint(const Sim& sim, const Choice& c,
                      analysis::itf::Footprint& fp, bool accesses) {
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
  fp.may_violate = sim.step_may_violate(c.pid);
  if (!accesses) return;
  const OpRequest& req = sim.pending_request(c.pid);
  switch (req.kind) {
    case OpKind::Start:
      break;  // resumes the body to its first op: local computation only
    case OpKind::Read:
      add_sorted(fp.reads, req.reg);
      break;
    case OpKind::Write:
      add_sorted(fp.writes, req.reg);
      break;
    case OpKind::Snapshot:
      for (const int r : req.regs) add_sorted(fp.reads, r);
      break;
    case OpKind::WriteSnap:
      add_sorted(fp.writes, req.reg);
      for (const int r : req.regs) add_sorted(fp.reads, r);
      break;
    case OpKind::Send:
      fp.send_to = req.peer;
      break;
    case OpKind::Recv:
      fp.is_recv = true;
      fp.recv_from = c.recv_from;
      break;
  }
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
    if (sim.pending_request(p).kind != OpKind::Recv) {
      out.push_back(Choice{Choice::Kind::Step, p, -1});
      continue;
    }
    // One list per thread: the parallel path's jobs call this concurrently.
    thread_local std::vector<Pid> senders;
    sim.recv_choices(p, senders);
    for (Pid from : senders) {
      out.push_back(Choice{Choice::Kind::Step, p, from});
    }
  }
  if (crashes_so_far < opts.max_crashes) {
    for (Pid p = 0; p < sim.n(); ++p) {
      if (sim.alive(p)) out.push_back(Choice{Choice::Kind::Crash, p, -1});
    }
  }
}

}  // namespace detail

namespace {

/// Mutable cursor of an in-progress incremental DFS: the schedule applied so
/// far (including any pre-applied prefix) and derived counters.
struct DfsCursor {
  std::vector<Choice> schedule;
  int crashes = 0;  ///< Crash choices in `schedule`.
  long steps = 0;   ///< Step choices in `schedule` (max_steps accounting).
  /// POR: the sleep set of the node the cursor currently sits on. Seed it
  /// to resume a reduced search mid-tree (the parallel path's frontier
  /// jobs do); after each descent it holds the current node's set.
  std::vector<Choice> sleep;
};

/// Calls the factory and readies its Sim for an incremental search: the Sim
/// must be non-null and unstepped (UsageError otherwise); checkpointing is
/// turned on, and state hashing too when `opts.tt` is set.
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

/// Adds `n` schedules to the running count `total`. Memoized counts grow
/// exponentially with the depth, so a total past the range of `long` is a
/// UsageError, never a wrap.
void add_schedules(long& total, long n) {
  usage_check(!__builtin_add_overflow(total, n, &total),
              "Explorer: more than 2^63 - 1 schedules to count");
}

/// Leaf callback of `incremental_dfs`: receives the Sim in the leaf state,
/// the full schedule, and the per-depth choice indices taken since the DFS
/// root. Return true to stop the search.
using DfsLeafFn = std::function<bool(
    Sim&, const std::vector<Choice>&, const std::vector<std::size_t>&)>;

/// Depth-first search from the Sim's *current* state using incremental
/// backtracking (requires sim.checkpointing()). Reaches every node that is
/// complete (no legal choices) or — when depth_limit >= 0 — at exactly
/// `depth_limit` choices below the root, calling `leaf` for each; returns
/// the number of schedules covered. Enforces opts.max_steps.
/// With opts.tt set (requires sim.state_hashing()) and no POR, the root and
/// every applied choice are claimed in the table, each frame records its
/// node's hash and the count covered when it was entered, and the count of
/// every node backed out of is published. A claimed state with a published
/// count adds it and is not entered; one still pending (claimed by a search
/// that has not backed out of it) is explored again, and if complete counts
/// 1 without calling `leaf`. Under opts.por only complete states are
/// claimed, and a repeated one counts 1 without calling `leaf`. A table
/// cannot be combined with a depth limit without POR (UsageError): a cut
/// subtree has no count to publish. Adds its work to `stats`; a node at the
/// depth limit counts as a leaf.
long incremental_dfs(Sim& sim, const ExploreOptions& opts, long depth_limit,
                     DfsCursor& cursor, const DfsLeafFn& leaf,
                     ExploreStats& stats) {
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

  // Whether every choice below the crash `c` of frame `f` would be asleep
  // there. A crash only sets its process's flag, so the child's choices are
  // exactly the frame's minus the crashed process's, and minus every crash
  // once the budget is spent; the child inherits one asleep if it sleeps
  // here and commutes with `c`. An empty set is a complete state, which
  // ends a schedule. classify decides a pair with a crash operand without
  // register or channel fields, so the peers are built without them.
  const auto crash_child_blocked = [&](const Frame& f, const Choice& c) {
    const bool budget_left = f.crashes_before + 1 < opts.max_crashes;
    detail::choice_footprint(sim, c, cand_fp);
    bool any = false;
    for (const Choice& e : f.cs) {
      if (e.pid == c.pid || (e.kind == Choice::Kind::Crash && !budget_left)) {
        continue;
      }
      if (!asleep(f, e)) return false;
      detail::choice_footprint(sim, e, peer_fp, false);
      if (!analysis::itf::classify(peer_fp, cand_fp).independent) return false;
      any = true;
    }
    return any;
  };

  // Applies the frame's next untried choice. When counting, a child whose
  // state the table holds with a published count adds that count and is
  // rewound at once: its subtree was explored before (the first visitor of
  // a state explores its whole subtree before publishing, and a repeat can
  // never be a state still on the current path — histories grow
  // monotonically along it). Under POR it skips sleeping choices instead
  // (their interleavings commute into branches explored elsewhere), and a
  // crash whose child would be sleep-blocked joins the sleep set unapplied,
  // as backtracking out of that child would have put it there. Returns
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
        // A crash adds no step, so its child's max_steps check is this
        // node's, which passed.
        if (c.kind == Choice::Kind::Crash && crash_child_blocked(f, c)) {
          f.sleep.push_back(c);
          continue;
        }
        // The child inherits every sleeping choice that commutes with `c`:
        // such a choice is still enabled below `c` (independence preserves
        // enabledness), its pending op is unchanged (same-pid pairs are
        // never independent), and its subtree still commutes into the
        // sibling branch that owns it. A crash's sleepers are built without
        // register or channel fields, as above.
        if (!f.sleep.empty()) {
          detail::choice_footprint(sim, c, cand_fp);
          for (const Choice& d : f.sleep) {
            detail::choice_footprint(sim, d, peer_fp, !cand_fp.crash);
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
      stats.nodes += 1;
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
      detail::legal_choices(sim, cursor.crashes, opts, f.cs);
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
        // Under POR only sleep empties a node: the table sees leaves only.
        if (opts.por) stats.sleep_blocked += 1;
        --depth;
        idx.pop_back();
        at_leaf = false;
        break;
      }
    }

    if (at_leaf) {
      add_schedules(covered, 1);
      stats.leaves += 1;
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

long explore_serial(const ExploreOptions& opts, const Explorer::Factory& make,
                    const Explorer::StoppingVisitor& visit,
                    ExploreStats& stats) {
  std::unique_ptr<Sim> sim = fresh_sim(make, opts);
  DfsCursor cursor;
  return incremental_dfs(
      *sim, opts, -1, cursor,
      [&](Sim& s, const std::vector<Choice>& schedule,
          const std::vector<std::size_t>&) { return visit(s, schedule); },
      stats);
}

// The parallel path. The choice tree is enumerated down to a (small)
// frontier depth F; every node at depth F — and every complete execution
// shallower than F — becomes an independent *subtree job*, identified by its
// choice prefix and numbered in canonical DFS order. A std::jthread pool
// takes the jobs in that order from one shared cursor: every job exists
// before the pool starts, so an idle worker that takes the next job
// balances the load. Each job replays its prefix into a fresh Sim
// (validating on the way that the factory is deterministic) and then runs
// the same incremental DFS as the serial path.
//
// Determinism. Every job reports (count, stopped, error) for its subtree,
// and the result is computed by walking the reports in canonical order, so
// the returned execution count — including `explore_until` early stops — is
// bit-identical to the serial path no matter how the subtrees interleaved
// at runtime. The only observable difference from serial execution is that
// on an early stop (or an error), visitors of canonically-later subtrees
// that were already running may have been invoked before the stop was
// discovered. Every visitor call is serialized through a mutex, so a
// visitor need not be thread-safe.

/// One subtree of the choice tree, identified by its prefix in canonical
/// DFS order. `choices` and `idx` describe the same prefix; the indices are
/// replayed against freshly-enumerated choice sets so a nondeterministic
/// factory is caught instead of silently exploring a different tree.
struct Job {
  std::vector<Choice> choices;
  std::vector<std::size_t> idx;
  /// POR: the sleep set of the subtree root, captured during frontier
  /// enumeration and re-seeded into the job's DFS cursor — the reduced
  /// parallel search explores exactly the serial path's reduced tree.
  std::vector<Choice> sleep;
};

/// What one job's subtree contributed, merged in canonical order afterwards.
struct JobOutcome {
  long count = 0;            ///< Schedules covered (in subtree order).
  bool stopped = false;      ///< The stopping visitor returned true.
  std::exception_ptr error;  ///< Exception thrown while exploring.
  ExploreStats stats;        ///< The job's own work counters.
};

void atomic_min(std::atomic<std::size_t>& target, std::size_t v) {
  std::size_t cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
  }
}

/// Enumerates the frontier at `depth`: every node `depth` choices below the
/// root, plus every complete execution shallower than that. Sets
/// `exhausted` when no node actually reached the depth limit (the whole
/// tree is shallower, so deepening the frontier cannot create more jobs).
/// Rewinds `sim` back to its initial state afterwards, so repeated passes
/// at increasing depths all partition the tree of the SAME factory call —
/// the jobs' prefixes are then a committed structure that later factory
/// calls are validated against during replay.
std::vector<Job> enumerate_frontier(Sim& sim, const ExploreOptions& opts,
                                    long depth, bool& exhausted) {
  std::vector<Job> jobs;
  exhausted = true;
  DfsCursor cursor;
  ExploreStats uncounted;
  incremental_dfs(sim, opts, depth, cursor,
                  [&](Sim&, const std::vector<Choice>& schedule,
                      const std::vector<std::size_t>& idx) {
                    if (static_cast<long>(idx.size()) == depth) {
                      exhausted = false;
                    }
                    jobs.push_back(Job{schedule, idx, cursor.sleep});
                    return false;
                  },
                  uncounted);
  sim.rewind(sim.history_size());
  return jobs;
}

long explore_parallel(const ExploreOptions& opts, int threads,
                      const Explorer::Factory& make,
                      const Explorer::StoppingVisitor& visit,
                      ExploreStats& stats) {
  // --- Phase 1: partition the choice tree at the frontier depth. ----------
  // Frontier enumeration must see every prefix: partitioning through the
  // shared transposition table would prune frontier nodes whose subtrees
  // the workers still have to own, so phase 1 runs memoization-free.
  ExploreOptions frontier_opts = opts;
  frontier_opts.tt.reset();
  std::unique_ptr<Sim> root = fresh_sim(make, frontier_opts);
  // Deepen until there are comfortably more jobs than threads, so the pool
  // can balance uneven subtrees.
  std::vector<Job> jobs;
  const std::size_t want = 4u * static_cast<std::size_t>(threads);
  for (long depth = 2;; depth += 2) {
    bool exhausted = false;
    jobs = enumerate_frontier(*root, frontier_opts, depth, exhausted);
    if (jobs.size() >= want || exhausted || depth >= 24) break;
  }
  root.reset();

  // --- Phase 2: run the subtree jobs on the pool, in canonical order. ------
  std::vector<JobOutcome> outcomes(jobs.size());
  // The next job to hand out. Jobs leave in canonical order, so a worker
  // that draws one past the barrier below can stop: every later job is past
  // it too.
  std::atomic<std::size_t> next_job{0};
  // Canonical index of the earliest job that stopped or failed: jobs after
  // it cannot affect the result and are skipped or aborted.
  std::atomic<std::size_t> barrier{SIZE_MAX};
  std::mutex visit_mu;  // serializes visitor calls

  const auto run_job = [&](std::size_t j) {
    const Job& job = jobs[j];
    JobOutcome& out = outcomes[j];
    std::unique_ptr<Sim> sim = fresh_sim(make, opts);
    DfsCursor cursor;
    // Replay the job's prefix, revalidating each choice index against the
    // fresh Sim: a factory that does not rebuild the same world is a bug.
    std::vector<Choice> cs;
    for (std::size_t d = 0; d < job.idx.size(); ++d) {
      detail::legal_choices(*sim, cursor.crashes, opts, cs);
      usage_check(job.idx[d] < cs.size() && cs[job.idx[d]] == job.choices[d],
                  "Explorer: nondeterministic factory (choice set changed)");
      const Choice& c = cs[job.idx[d]];
      if (c.kind == Choice::Kind::Step) {
        sim->step(c.pid, c.recv_from);
        cursor.steps += 1;
      } else {
        sim->crash(c.pid);
        cursor.crashes += 1;
      }
      cursor.schedule.push_back(c);
    }
    cursor.sleep = job.sleep;
    // Distinct frontier prefixes can converge on one state: the DFS claims
    // its root, so a job whose root another job has already counted adds
    // that count, and one whose root is still being explored explores it
    // again (time, never exactness).
    out.count = incremental_dfs(
        *sim, opts, -1, cursor,
        [&](Sim& s, const std::vector<Choice>& schedule,
            const std::vector<std::size_t>&) {
          if (barrier.load(std::memory_order_acquire) < j) {
            return true;  // abandoned: a canonically-earlier job stopped
          }
          bool stop;
          {
            const std::lock_guard<std::mutex> lk(visit_mu);
            stop = visit(s, schedule);
          }
          if (stop) {
            out.stopped = true;
            atomic_min(barrier, j);
          }
          return stop;
        },
        out.stats);
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      pool.emplace_back([&] {
        for (std::size_t j = next_job++; j < jobs.size(); j = next_job++) {
          if (barrier.load(std::memory_order_acquire) < j) return;
          try {
            run_job(j);
          } catch (...) {
            outcomes[j].error = std::current_exception();
            atomic_min(barrier, j);
          }
        }
      });
    }
  }  // joins the pool: all outcomes are published before the merge

  // --- Phase 3: deterministic merge in canonical subtree order. -----------
  for (const JobOutcome& o : outcomes) stats += o.stats;
  long merged = 0;
  for (const JobOutcome& o : outcomes) {
    if (o.error != nullptr) std::rethrow_exception(o.error);
    add_schedules(merged, o.count);
    if (o.stopped) return merged;
  }
  return merged;
}

}  // namespace

long Explorer::explore(const Factory& make, const Visitor& visit,
                       ExploreStats* stats) const {
  return explore_until(
      make,
      [&](Sim& sim, const std::vector<Choice>& sched) {
        visit(sim, sched);
        return false;
      },
      stats);
}

long Explorer::explore_until(const Factory& make, const StoppingVisitor& visit,
                             ExploreStats* stats) const {
  const int threads = resolve_explore_threads(opts_.threads);
  ExploreStats counted;
  const long count =
      threads > 1 ? explore_parallel(opts_, threads, make, visit, counted)
                  : explore_serial(opts_, make, visit, counted);
  if (stats != nullptr) *stats = counted;
  return count;
}

}  // namespace bsr::sim
