#include "sim/sched.h"

namespace bsr::sim {

RunReport summarize(const Sim& sim, long steps, bool hit_limit) {
  RunReport rep;
  rep.steps = steps;
  rep.hit_step_limit = hit_limit;
  for (Pid p = 0; p < sim.n(); ++p) {
    if (sim.terminated(p)) {
      rep.decided.push_back(p);
    } else if (sim.crashed(p)) {
      rep.crashed.push_back(p);
    } else {
      rep.blocked.push_back(p);
    }
  }
  return rep;
}

namespace {

bool any_enabled(const Sim& sim) {
  for (Pid p = 0; p < sim.n(); ++p) {
    if (sim.enabled(p)) return true;
  }
  return false;
}

}  // namespace

RunReport run_round_robin(Sim& sim, long max_steps) {
  long steps = 0;
  Pid next = 0;
  while (steps < max_steps) {
    bool found = false;
    for (int k = 0; k < sim.n(); ++k) {
      const Pid p = (next + k) % sim.n();
      if (sim.enabled(p)) {
        sim.step(p);
        next = (p + 1) % sim.n();
        found = true;
        break;
      }
    }
    if (!found) return summarize(sim, steps, false);
    ++steps;
  }
  return summarize(sim, steps, any_enabled(sim));
}

RunReport run_round_robin_until(Sim& sim,
                                const std::function<bool(const Sim&)>& done,
                                long max_steps) {
  long steps = 0;
  Pid next = 0;
  while (steps < max_steps) {
    if (done(sim)) return summarize(sim, steps, false);
    bool found = false;
    for (int k = 0; k < sim.n(); ++k) {
      const Pid p = (next + k) % sim.n();
      if (sim.enabled(p)) {
        sim.step(p);
        next = (p + 1) % sim.n();
        found = true;
        break;
      }
    }
    if (!found) return summarize(sim, steps, false);
    ++steps;
  }
  return summarize(sim, steps, !done(sim) && any_enabled(sim));
}

RunReport run_random(Sim& sim, const RandomRunOptions& opts) {
  Rng rng(opts.seed);
  long steps = 0;
  int crashes = 0;
  // Cleared, not rebuilt, every step: once they have grown to n, a sampled
  // step allocates only what Sim::step itself does.
  std::vector<Pid> enabled;
  std::vector<Pid> alive;
  std::vector<Pid> senders;
  while (steps < opts.max_steps) {
    if (opts.done && opts.done(sim)) return summarize(sim, steps, false);

    enabled.clear();
    for (Pid p = 0; p < sim.n(); ++p) {
      if (sim.enabled(p)) enabled.push_back(p);
    }
    if (enabled.empty()) return summarize(sim, steps, false);

    // An enabled process is alive, so a victim always exists; `alive` is
    // built only once the crash draw hits.
    if (crashes < opts.max_crashes &&
        rng.chance(opts.crash_num, RandomRunOptions::kCrashDen)) {
      alive.clear();
      for (Pid p = 0; p < sim.n(); ++p) {
        if (sim.alive(p)) alive.push_back(p);
      }
      const Pid victim = alive[rng.below(alive.size())];
      sim.crash(victim);
      ++crashes;
      continue;
    }

    const Pid p = enabled[rng.below(enabled.size())];
    Pid from = -1;
    sim.recv_choices(p, senders);
    if (!senders.empty()) from = senders[rng.below(senders.size())];
    sim.step(p, from);
    ++steps;
  }
  return summarize(sim, steps,
                   !(opts.done && opts.done(sim)) && any_enabled(sim));
}

std::size_t run_schedule(Sim& sim, const std::vector<Choice>& schedule) {
  std::size_t applied = 0;
  for (const Choice& c : schedule) {
    switch (c.kind) {
      case Choice::Kind::Step:
        if (!sim.enabled(c.pid)) return applied;
        sim.step(c.pid, c.recv_from);
        break;
      case Choice::Kind::Crash:
        if (!sim.alive(c.pid)) return applied;
        sim.crash(c.pid);
        break;
    }
    ++applied;
  }
  return applied;
}

}  // namespace bsr::sim
