// Schedulers: drive a Sim to completion under a scheduling policy.
//
// The adversary in the paper's model is exactly the scheduler: it picks
// which process takes the next atomic step and which processes crash. We
// provide a deterministic round-robin runner, a seeded random runner with
// crash injection (the workhorse for property tests), and an explicit
// schedule replayer (for reproducing executions found by the explorer).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "sim/sim.h"
#include "util/rng.h"

namespace bsr::sim {

/// Outcome of running a Sim under a scheduler.
struct RunReport {
  /// Pids that terminated (decided).
  std::vector<Pid> decided;
  /// Pids that crashed (injected by the scheduler).
  std::vector<Pid> crashed;
  /// Pids still alive but permanently blocked (e.g. recv from a crashed
  /// peer) when the run stopped.
  std::vector<Pid> blocked;
  long steps = 0;
  /// True if the run stopped at max_steps while it could still go on: no
  /// early-stop predicate held and some process was enabled (suspected
  /// livelock). A run whose last step lands on the cap and finishes it is
  /// not cut.
  bool hit_step_limit = false;

  [[nodiscard]] bool all_decided(int n) const {
    return static_cast<int>(decided.size()) == n;
  }
};

/// Fills the report's decided/crashed/blocked from the Sim's final state.
[[nodiscard]] RunReport summarize(const Sim& sim, long steps, bool hit_limit);

/// Runs processes in cyclic pid order, skipping non-enabled ones, until no
/// process is enabled or `max_steps` is hit.
RunReport run_round_robin(Sim& sim, long max_steps = 1'000'000);

struct RandomRunOptions {
  std::uint64_t seed = 1;
  /// The scheduler may crash up to this many processes (chosen at random
  /// times and identities). This is the parameter t of the t-resilient model.
  int max_crashes = 0;
  /// Per-step probability (numerator over kCrashDen) that the adversary
  /// crashes some alive process, while crashes remain available.
  std::uint64_t crash_num = 5;
  static constexpr std::uint64_t kCrashDen = 100;
  long max_steps = 1'000'000;
  /// Optional early-stop predicate, checked before every scheduling
  /// decision and once more when `max_steps` is reached (for systems with
  /// non-terminating server processes).
  std::function<bool(const Sim&)> done;
};

/// Runs under a uniformly random fair scheduler with crash injection.
RunReport run_random(Sim& sim, const RandomRunOptions& opts);

/// Round-robin with an early-stop predicate, for systems whose processes
/// poll forever (e.g. the §6 register stack): stops as soon as `done(sim)`
/// holds, checked before every step and once more at `max_steps`.
RunReport run_round_robin_until(Sim& sim,
                                const std::function<bool(const Sim&)>& done,
                                long max_steps = 10'000'000);

/// One scheduling decision, as recorded/replayed by the explorer.
struct Choice {
  enum class Kind { Step, Crash };
  Kind kind = Kind::Step;
  Pid pid = -1;
  Pid recv_from = -1;  ///< For Step on a Recv op: the chosen sender.

  friend bool operator==(const Choice&, const Choice&) = default;
};

/// Replays an explicit schedule. Stops early (returning the number of
/// choices applied) if a choice is not applicable.
std::size_t run_schedule(Sim& sim, const std::vector<Choice>& schedule);

}  // namespace bsr::sim
