#include "sim/explore_parallel.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/errors.h"

namespace bsr::sim {

namespace {

/// One subtree of the choice tree, identified by its prefix in canonical
/// DFS order. `choices` and `idx` describe the same prefix; the indices are
/// replayed against freshly-enumerated choice sets so a nondeterministic
/// factory is caught instead of silently exploring a different tree.
struct Job {
  std::vector<Choice> choices;
  std::vector<std::size_t> idx;
  /// POR: the sleep set of the subtree root, captured during frontier
  /// enumeration and re-seeded into the job's DFS cursor — the reduced
  /// parallel search explores exactly the serial engine's reduced tree.
  std::vector<Choice> sleep;
};

/// What one job's subtree contributed, merged in canonical order afterwards.
struct JobOutcome {
  long count = 0;                ///< Schedules covered (in subtree order).
  bool stopped = false;          ///< The stopping visitor returned true.
  std::exception_ptr error;      ///< Exception thrown while exploring.
};

/// Per-worker job queue; idle workers steal from the back of other queues.
struct WorkerQueue {
  std::mutex mu;
  std::deque<std::size_t> jobs;
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
  detail::DfsCursor cursor;
  detail::incremental_dfs(
      sim, opts, depth, cursor,
      [&](Sim&, const std::vector<Choice>& schedule,
          const std::vector<std::size_t>& idx) {
        if (static_cast<long>(idx.size()) == depth) exhausted = false;
        jobs.push_back(Job{schedule, idx, cursor.sleep});
        return false;
      });
  sim.rewind(sim.history_size());
  return jobs;
}

}  // namespace

ParallelExplorer::ParallelExplorer(ExploreOptions opts, int threads)
    : opts_(opts), threads_(threads) {
  usage_check(threads_ >= 1, "ParallelExplorer: need at least one thread");
}

long ParallelExplorer::explore(const Factory& make, const Visitor& visit) const {
  return explore_until(make, [&](Sim& sim, const std::vector<Choice>& sched) {
    visit(sim, sched);
    return false;
  });
}

long ParallelExplorer::explore_until(const Factory& make,
                                     const StoppingVisitor& visit) const {
  // --- Phase 1: partition the choice tree at the frontier depth. ----------
  // Frontier enumeration must see every prefix: partitioning through the
  // shared transposition table would prune frontier nodes whose subtrees
  // the workers still have to own, so phase 1 runs memoization-free.
  ExploreOptions frontier_opts = opts_;
  frontier_opts.tt.reset();
  std::unique_ptr<Sim> root = detail::fresh_sim(make, frontier_opts);
  // Deepen until there are comfortably more jobs than threads, so the
  // work-stealing pool can balance uneven subtrees.
  std::vector<Job> jobs;
  const std::size_t want = 4u * static_cast<std::size_t>(threads_);
  for (long depth = 2;; depth += 2) {
    bool exhausted = false;
    jobs = enumerate_frontier(*root, frontier_opts, depth, exhausted);
    if (jobs.size() >= want || exhausted || depth >= 24) break;
  }
  root.reset();

  // --- Phase 2: execute the subtree jobs on the work-stealing pool. -------
  std::vector<JobOutcome> outcomes(jobs.size());
  // Canonical index of the earliest job that stopped or failed: jobs after
  // it cannot affect the result and are skipped or aborted.
  std::atomic<std::size_t> barrier{SIZE_MAX};
  std::mutex visit_mu;  // serializes visitor calls (see header)

  std::vector<WorkerQueue> queues(static_cast<std::size_t>(threads_));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    queues[j % static_cast<std::size_t>(threads_)].jobs.push_back(j);
  }

  const auto next_job = [&](std::size_t worker, std::size_t& out) {
    {
      WorkerQueue& own = queues[worker];
      const std::lock_guard<std::mutex> lk(own.mu);
      if (!own.jobs.empty()) {
        out = own.jobs.front();
        own.jobs.pop_front();
        return true;
      }
    }
    for (int d = 1; d < threads_; ++d) {
      WorkerQueue& victim =
          queues[(worker + static_cast<std::size_t>(d)) %
                 static_cast<std::size_t>(threads_)];
      const std::lock_guard<std::mutex> lk(victim.mu);
      if (!victim.jobs.empty()) {
        out = victim.jobs.back();  // steal the coldest (latest) job
        victim.jobs.pop_back();
        return true;
      }
    }
    return false;
  };

  const auto run_job = [&](std::size_t j) {
    const Job& job = jobs[j];
    JobOutcome& out = outcomes[j];
    std::unique_ptr<Sim> sim = detail::fresh_sim(make, opts_);
    detail::DfsCursor cursor;
    // Replay the job's prefix, revalidating each choice index against the
    // fresh Sim: a factory that does not rebuild the same world is a bug.
    std::vector<Choice> cs;
    for (std::size_t d = 0; d < job.idx.size(); ++d) {
      detail::legal_choices(*sim, cursor.crashes, opts_, cs);
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
    out.count = detail::incremental_dfs(
        *sim, opts_, -1, cursor,
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
        });
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(threads_));
    for (int w = 0; w < threads_; ++w) {
      pool.emplace_back([&, w] {
        std::size_t j = 0;
        while (next_job(static_cast<std::size_t>(w), j)) {
          if (barrier.load(std::memory_order_acquire) < j) continue;
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
  long merged = 0;
  for (const JobOutcome& o : outcomes) {
    if (o.error != nullptr) std::rethrow_exception(o.error);
    detail::add_schedules(merged, o.count);
    if (o.stopped) return merged;
  }
  return merged;
}

}  // namespace bsr::sim
