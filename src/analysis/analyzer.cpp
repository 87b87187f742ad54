#include "analysis/analyzer.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/explore.h"
#include "sim/sim.h"
#include "sim/tt.h"

namespace bsr::analysis {
namespace {

const char* rule_for(sim::ModelEvent::Kind k) {
  switch (k) {
    case sim::ModelEvent::Kind::Swmr: return "swmr-ownership";
    case sim::ModelEvent::Kind::Width: return "width-overflow";
    case sim::ModelEvent::Kind::WriteOnce: return "write-once";
    case sim::ModelEvent::Kind::Bottom: return "bottom-escape";
    case sim::ModelEvent::Kind::Topology: return "topology";
    case sim::ModelEvent::Kind::Atomicity: return "step-atomicity";
    case sim::ModelEvent::Kind::Round: return "round-bound";
  }
  return "?";
}

/// Cross-execution facts about one register.
struct RegAgg {
  bool read_ever = false;  ///< Read on at least one explored schedule.
  int max_bits = 0;        ///< Max max_bits_written over all schedules.
  long max_writes = 0;     ///< Max writes within one execution.
};

}  // namespace

ProtocolReport analyze_protocol(const ProtocolSpec& spec) {
  ProtocolReport rep;
  rep.name = spec.name;
  rep.claim_source = spec.claim.source;
  rep.claimed_register_bits = spec.claim.max_register_bits;
  rep.claimed_bits_expr = spec.claim.symbolic_bits.render();
  rep.sampled = static_cast<bool>(spec.sample_runner);

  const auto add = [&rep, &spec](Diagnostic d) {
    d.protocol = spec.name;
    rep.diagnostics.push_back(std::move(d));
  };

  // The effective per-register budget: a symbolic claim evaluated at the
  // spec's instantiation when one is stated, else the tabulated constant.
  const int budget = spec.claim.effective_bits(spec.params);
  if (spec.claim.symbolic_bits.defined() &&
      budget != spec.claim.max_register_bits) {
    std::ostringstream msg;
    msg << "symbolic claim " << spec.claim.symbolic_bits.render()
        << " evaluates to " << budget << " bits at (n=" << spec.params.n
        << ", k=" << spec.params.k << ", delta=" << spec.params.delta
        << ", t=" << spec.params.t << ", b=" << spec.params.b
        << ") but the claims table states " << spec.claim.max_register_bits;
    Diagnostic d;
    d.rule = "claim-width";
    d.message = msg.str();
    add(std::move(d));
  }

  // --- Static layer: audit the declared register table against the claim.
  // Factories are deterministic, so one probe Sim represents them all.
  const auto probe = spec.factory();
  const int nregs = probe->num_registers();
  std::vector<sim::Register> decls;
  decls.reserve(static_cast<std::size_t>(nregs));
  for (int r = 0; r < nregs; ++r) decls.push_back(probe->register_info(r));

  for (int r = 0; r < nregs; ++r) {
    const sim::Register& reg = decls[static_cast<std::size_t>(r)];
    if (reg.width_bits == sim::kUnbounded) continue;
    std::ostringstream msg;
    if (budget == 0) {
      msg << "claim [" << spec.claim.source
          << "] admits no bounded registers, but '" << reg.name
          << "' declares " << reg.width_bits << " bits";
    } else if (reg.width_bits > budget) {
      msg << "register '" << reg.name << "' declares " << reg.width_bits
          << " bits; the claim [" << spec.claim.source << "] grants at most "
          << budget;
    } else {
      continue;
    }
    Diagnostic d;
    d.rule = "claim-width";
    d.pid = reg.writer;
    d.reg = r;
    d.reg_name = reg.name;
    d.message = msg.str();
    add(std::move(d));
  }
  if (spec.claim.per_process_bits.has_value()) {
    std::map<sim::Pid, int> per_pid;
    for (const sim::Register& reg : decls) {
      if (reg.width_bits != sim::kUnbounded && reg.writer >= 0) {
        per_pid[reg.writer] += reg.width_bits;
      }
    }
    for (const auto& [pid, bits] : per_pid) {
      if (bits <= *spec.claim.per_process_bits) continue;
      std::ostringstream msg;
      msg << "process " << pid << " owns " << bits
          << " bounded bits across its registers; the claim ["
          << spec.claim.source << "] grants " << *spec.claim.per_process_bits
          << " per process";
      Diagnostic d;
      d.rule = "claim-width";
      d.pid = pid;
      d.message = msg.str();
      add(std::move(d));
    }
  }

  // --- Dynamic layer: run every schedule (or seeded samples) in collect
  // mode and harvest the per-path violation log. Identical violations
  // reached along many schedules are reported once, tagged with the first
  // schedule that exhibited them.
  std::vector<RegAgg> agg(static_cast<std::size_t>(nregs));
  std::set<std::string> seen;
  int max_used = 0;
  std::vector<long> steps_seen(static_cast<std::size_t>(probe->n()), 0);

  const auto harvest = [&](sim::Sim& sim, const std::string& fingerprint) {
    for (const sim::ModelEvent& e : sim.model_violations()) {
      // The same violating operation fires at a different step offset on
      // every interleaving, so the step index stays out of the dedupe key:
      // one diagnostic per distinct violation, tagged with the first
      // schedule (and step) that exhibited it.
      std::ostringstream key;
      key << rule_for(e.kind) << '|' << e.pid << '|' << e.reg << '|'
          << e.message;
      if (!seen.insert(key.str()).second) continue;
      Diagnostic d;
      d.rule = rule_for(e.kind);
      d.pid = e.pid;
      d.reg = e.reg;
      if (e.reg >= 0 && e.reg < nregs) {
        d.reg_name = decls[static_cast<std::size_t>(e.reg)].name;
      }
      d.step = e.step_index;
      d.fingerprint = fingerprint;
      d.message = e.message;
      add(std::move(d));
    }
    for (int r = 0; r < nregs; ++r) {
      const sim::Register& reg = sim.register_info(r);
      RegAgg& a = agg[static_cast<std::size_t>(r)];
      a.read_ever = a.read_ever || reg.reads > 0;
      a.max_bits = std::max(a.max_bits, reg.max_bits_written);
      a.max_writes = std::max(a.max_writes, reg.writes);
    }
    max_used = std::max(max_used, sim.max_bounded_bits_used());
    // Max steps any schedule made each process take — the observation the
    // step tier checks against its symbolic bounds (`--mode=steps`). The
    // artificial OpKind::Start step is a scheduler artifact, not one of the
    // paper's atomic shared-memory accesses, so it is excluded.
    for (int pid = 0; pid < sim.n(); ++pid) {
      auto& cell = steps_seen[static_cast<std::size_t>(pid)];
      cell = std::max(cell, std::max(0L, sim.steps(pid) - 1));
    }
  };

  const auto make_sim = [&spec] {
    auto sim = spec.factory();
    sim->set_violation_collecting(true);
    return sim;
  };

  if (spec.sample_runner) {
    for (int seed = 1; seed <= spec.sample_seeds; ++seed) {
      auto sim = make_sim();
      spec.sample_runner(*sim, static_cast<std::uint64_t>(seed));
      harvest(*sim, "seed:" + std::to_string(seed));
      ++rep.executions;
    }
  } else {
    // Everything harvested is a function of the hashed final state, and the
    // first schedule in DFS order that reaches a final state is the one a
    // counting search visits, so memoizing schedule counts leaves the report
    // unchanged while expanding each state once.
    sim::ExploreOptions opts = spec.explore;
    opts.tt = std::make_shared<sim::TranspositionTable>(sim::kSmallTableBytes);
    const sim::Explorer explorer(opts);
    rep.executions = explorer.explore(
        make_sim,
        [&](sim::Sim& sim, const std::vector<sim::Choice>& schedule) {
          harvest(sim, schedule_fingerprint(schedule));
        });
  }
  rep.max_bounded_bits_used = max_used;
  rep.observed_steps = std::move(steps_seen);

  // The audit table the cross-validator compares against the static tier's:
  // declarations from the probe Sim, usage from the exploration aggregate.
  for (int r = 0; r < nregs; ++r) {
    const sim::Register& reg = decls[static_cast<std::size_t>(r)];
    const RegAgg& a = agg[static_cast<std::size_t>(r)];
    RegisterAudit row;
    row.reg = r;
    row.name = reg.name;
    row.writer = reg.writer;
    row.declared_bits = reg.width_bits;
    row.write_once = reg.write_once;
    row.allows_bottom = reg.allows_bottom;
    row.max_bits = a.max_bits;
    row.max_writes = a.max_writes;
    row.read = a.read_ever;
    rep.registers.push_back(std::move(row));
  }

  // --- Aggregate layer: facts only visible across the whole exploration.
  for (int r = 0; r < nregs; ++r) {
    const sim::Register& reg = decls[static_cast<std::size_t>(r)];
    const RegAgg& a = agg[static_cast<std::size_t>(r)];
    if (reg.width_bits != sim::kUnbounded && budget > 0 &&
        a.max_bits > budget) {
      std::ostringstream msg;
      msg << "register '" << reg.name << "' was observed holding "
          << a.max_bits << "-bit values; the claim [" << spec.claim.source
          << "] budgets " << budget << " bits";
      Diagnostic d;
      d.rule = "claim-usage";
      d.pid = reg.writer;
      d.reg = r;
      d.reg_name = reg.name;
      d.message = msg.str();
      add(std::move(d));
    }
  }
  for (int r = 0; r < nregs; ++r) {
    const sim::Register& reg = decls[static_cast<std::size_t>(r)];
    const RegAgg& a = agg[static_cast<std::size_t>(r)];
    if (!a.read_ever) {
      Diagnostic d;
      d.rule = "dead-register";
      d.severity = Severity::Warning;
      d.pid = reg.writer;
      d.reg = r;
      d.reg_name = reg.name;
      d.message = "register '" + reg.name +
                  "' is never read on any explored schedule";
      add(std::move(d));
    }
    // Width actually needed by the observed values: at least one data bit,
    // plus the ⊥ code point when the register reserves one.
    const int plausible =
        std::max(1, a.max_bits) + (reg.allows_bottom ? 1 : 0);
    if (reg.width_bits != sim::kUnbounded && a.max_bits > 0 &&
        reg.width_bits > plausible) {
      std::ostringstream msg;
      msg << "register '" << reg.name << "' declares " << reg.width_bits
          << " bits but no explored execution needed more than " << plausible;
      Diagnostic d;
      d.rule = "width-unused";
      d.severity = Severity::Warning;
      d.pid = reg.writer;
      d.reg = r;
      d.reg_name = reg.name;
      d.message = msg.str();
      add(std::move(d));
    }
  }

  return rep;
}

}  // namespace bsr::analysis
