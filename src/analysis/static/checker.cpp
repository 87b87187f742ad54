#include "analysis/static/checker.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/static/interference.h"
#include "analysis/static/steps.h"
#include "proto/builder.h"
#include "util/errors.h"

namespace bsr::analysis {
namespace {

/// Largest integer writable into a `bits`-wide register that reserves its
/// top code point for ⊥.
std::uint64_t bottom_limit(int bits) {
  return (std::uint64_t{1} << bits) - 2;
}

/// Fills one audit row from a register's declaration and summary.
RegisterAudit audit_row(int index, const ir::RegisterDecl& decl,
                        const ir::RegisterSummary& sum) {
  RegisterAudit a;
  a.reg = index;
  a.name = decl.name;
  a.writer = decl.writer;
  a.declared_bits = decl.width_bits;
  a.write_once = decl.write_once;
  a.allows_bottom = decl.allows_bottom;
  a.max_bits = sum.written ? sum.values.max_bits() : 0;
  a.max_writes = sum.writes.hi == ir::kMany ? -1 : sum.writes.hi;
  a.read = sum.reads.hi != 0;
  a.sym_bits = sum.sym.render();
  return a;
}

}  // namespace

ProtocolReport analyze_static(const ProtocolSpec& spec) {
  ProtocolReport rep;
  rep.name = spec.name;
  rep.claim_source = spec.claim.source;
  rep.claimed_register_bits = spec.claim.max_register_bits;
  rep.claimed_bits_expr = spec.claim.symbolic_bits.render();
  rep.mode = LintMode::Static;

  const auto add = [&rep, &spec](Diagnostic d) {
    d.protocol = spec.name;
    rep.diagnostics.push_back(std::move(d));
  };

  if (!spec.describe) {
    Diagnostic d;
    d.rule = "ir-missing";
    d.message = "protocol has no describe() hook; the static tier cannot "
                "audit it (add one or exempt it in the claims registry)";
    add(std::move(d));
    return rep;
  }

  ir::ProtocolIR p = spec.describe();
  p.params = spec.params;  // the spec's instantiation is authoritative

  // Reflection-stability rule (`loop-shape`): reflect the body a second
  // time with every read result perturbed. Reflection runs the body solo
  // against tracked register contents, so the IR must not depend on what
  // reads return — data-dependent structure belongs in the combinators,
  // which declare their trip counts. A structural diff means the audited
  // IR describes just one data path and the facts derived from it are not
  // sound over-approximations. A body that *throws* under perturbation
  // (its internal sanity checks reject the corrupted data, e.g. alg2's
  // decision invariants) yields no verdict: the op sequence it emitted
  // before failing proves nothing either way, so only a completed
  // re-reflection can fire the rule.
  {
    std::string unstable;
    try {
      const proto::ScopedReadPerturbation guard;
      ir::ProtocolIR again = spec.describe();
      again.params = spec.params;
      unstable = ir::diff(p, again);
    } catch (const std::exception&) {
      unstable.clear();
    }
    if (!unstable.empty()) {
      std::ostringstream msg;
      msg << "reflected IR changes when read results are perturbed — the "
             "body shapes its control flow around tracked register "
             "contents instead of the combinators: "
          << unstable;
      Diagnostic d;
      d.rule = "loop-shape";
      d.message = msg.str();
      add(std::move(d));
    }
  }

  const ir::ProtocolSummary full = ir::summarize_full(p);
  const std::vector<ir::RegisterSummary>& sums = full.registers;

  // The effective per-register budget: the symbolic claim evaluated at this
  // instantiation when one is stated, else the constant from the table.
  const int budget = spec.claim.effective_bits(spec.params);

  // A symbolic claim must agree with its tabulated constant at the spec's
  // own instantiation — a mismatch is a claims-table bug, not slack.
  if (spec.claim.symbolic_bits.defined() &&
      budget != spec.claim.max_register_bits) {
    std::ostringstream msg;
    msg << "symbolic claim " << spec.claim.symbolic_bits.render()
        << " evaluates to " << budget << " bits at (n=" << spec.params.n
        << ", k=" << spec.params.k << ", delta=" << spec.params.delta
        << ", t=" << spec.params.t << ", b=" << spec.params.b
        << ") but the claims table states " << spec.claim.max_register_bits;
    Diagnostic d;
    d.rule = "static-width";
    d.message = msg.str();
    add(std::move(d));
  }

  const auto reg_diag = [](const char* rule, int index,
                           const ir::RegisterDecl& decl, std::string msg) {
    Diagnostic d;
    d.rule = rule;
    d.pid = decl.writer;
    d.reg = index;
    d.reg_name = decl.name;
    d.message = std::move(msg);
    return d;
  };

  for (std::size_t i = 0; i < p.registers.size(); ++i) {
    const ir::RegisterDecl& decl = p.registers[i];
    const ir::RegisterSummary& sum = sums[i];
    const int index = static_cast<int>(i);
    rep.registers.push_back(audit_row(index, decl, sum));

    // Declared width vs. the claim (the static mirror of `claim-width`).
    if (decl.width_bits != ir::kUnboundedWidth) {
      std::ostringstream msg;
      if (budget == 0) {
        msg << "claim [" << spec.claim.source
            << "] admits no bounded registers, but '" << decl.name
            << "' declares " << decl.width_bits << " bits";
        add(reg_diag("static-width", index, decl, msg.str()));
      } else if (decl.width_bits > budget) {
        msg << "register '" << decl.name << "' declares " << decl.width_bits
            << " bits; the claim [" << spec.claim.source
            << "] grants at most " << budget;
        add(reg_diag("static-width", index, decl, msg.str()));
      }
    }

    // Derived SWMR ownership (the static mirror of `swmr-ownership`).
    if (decl.writer >= 0) {
      for (const int pid : sum.writers) {
        if (pid == decl.writer) continue;
        std::ostringstream msg;
        msg << "IR of process " << pid << " writes register '" << decl.name
            << "' owned by process " << decl.writer;
        Diagnostic d = reg_diag("static-ownership", index, decl, msg.str());
        d.pid = pid;
        add(std::move(d));
      }
    }

    // Derived write count vs. write-once (mirror of `write-once`).
    if (decl.write_once &&
        (sum.writes.hi == ir::kMany || sum.writes.hi > 1)) {
      std::ostringstream msg;
      msg << "write-once register '" << decl.name << "' may be written ";
      if (sum.writes.hi == ir::kMany) {
        msg << "unboundedly often";
      } else {
        msg << sum.writes.hi << " times";
      }
      msg << " in one execution";
      add(reg_diag("static-write-once", index, decl, msg.str()));
    }

    // Derived value set vs. the declared width and the ⊥ code point
    // (mirrors of `width-overflow` and `bottom-escape`).
    if (decl.width_bits != ir::kUnboundedWidth && sum.written) {
      if (sum.values.unbounded) {
        std::ostringstream msg;
        msg << "register '" << decl.name << "' declares " << decl.width_bits
            << " bits but its IR writes values with no finite bound";
        add(reg_diag("static-width", index, decl, msg.str()));
      } else {
        const int bits = sum.values.max_bits();
        if (bits > decl.width_bits) {
          std::ostringstream msg;
          msg << "register '" << decl.name << "' declares " << decl.width_bits
              << " bits but its IR may write " << bits << "-bit values";
          add(reg_diag("static-width", index, decl, msg.str()));
        } else if (decl.allows_bottom &&
                   sum.values.hi > bottom_limit(decl.width_bits)) {
          std::ostringstream msg;
          msg << "register '" << decl.name << "' reserves "
              << bottom_limit(decl.width_bits) + 1
              << " for ⊥ but its IR may write values up to " << sum.values.hi;
          add(reg_diag("static-bottom", index, decl, msg.str()));
        }
        // Derivable usage vs. the claimed budget (mirror of `claim-usage`).
        if (budget > 0 && bits > budget) {
          std::ostringstream msg;
          msg << "register '" << decl.name << "' may hold " << bits
              << "-bit values; the claim [" << spec.claim.source
              << "] budgets " << budget << " bits";
          add(reg_diag("static-width", index, decl, msg.str()));
        }
        rep.max_bounded_bits_used = std::max(rep.max_bounded_bits_used, bits);
      }
    }

    // Registers no IR path reads (mirror of `dead-register`).
    if (sum.reads.hi == 0) {
      Diagnostic d = reg_diag(
          "static-dead-register", index, decl,
          "register '" + decl.name + "' is never read on any IR path");
      d.severity = Severity::Warning;
      add(std::move(d));
    }
  }

  // Per-process declared bounded bits vs. the per-process budget.
  if (spec.claim.per_process_bits.has_value()) {
    std::map<int, int> per_pid;
    for (const ir::RegisterDecl& decl : p.registers) {
      if (decl.width_bits != ir::kUnboundedWidth && decl.writer >= 0) {
        per_pid[decl.writer] += decl.width_bits;
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
      d.rule = "static-width";
      d.pid = pid;
      d.message = msg.str();
      add(std::move(d));
    }
  }

  // Message-passing rules: the static counterpart of the kernel's channel
  // topology enforcement plus the declared payload and round budgets.
  for (std::size_t c = 0; c < p.channels.size(); ++c) {
    const ir::ChannelDecl& chan = p.channels[c];
    const ir::ChannelSummary& sum = full.channels[c];
    if (chan.width_bits == ir::kUnboundedWidth || !sum.used) continue;
    std::ostringstream msg;
    if (sum.payloads.unbounded) {
      msg << "channel " << chan.src << "→" << chan.dst << " declares "
          << chan.width_bits << "-bit payloads but its IR sends values with "
          << "no finite bound";
    } else if (sum.payloads.max_bits() > chan.width_bits) {
      msg << "channel " << chan.src << "→" << chan.dst << " declares "
          << chan.width_bits << "-bit payloads but its IR may send "
          << sum.payloads.max_bits() << "-bit values";
    } else {
      continue;
    }
    Diagnostic d;
    d.rule = "static-channel-width";
    d.pid = chan.src;
    d.message = msg.str();
    add(std::move(d));
  }
  for (const auto& [pid, dst] : full.off_topology) {
    std::ostringstream msg;
    msg << "IR of process " << pid << " sends to process " << dst
        << ", a link absent from the declared topology";
    Diagnostic d;
    d.rule = "static-topology";
    d.pid = pid;
    d.message = msg.str();
    add(std::move(d));
  }
  if (p.max_rounds != ir::kMany) {
    for (std::size_t i = 0; i < p.processes.size(); ++i) {
      const ir::Count& rounds = full.rounds[i];
      if (rounds.hi != ir::kMany && rounds.hi <= p.max_rounds) continue;
      std::ostringstream msg;
      msg << "process " << p.processes[i].pid << " may execute ";
      if (rounds.hi == ir::kMany) {
        msg << "unboundedly many";
      } else {
        msg << rounds.hi;
      }
      msg << " rounds; the protocol declares at most " << p.max_rounds;
      Diagnostic d;
      d.rule = "static-round-bound";
      d.pid = p.processes[i].pid;
      d.message = msg.str();
      add(std::move(d));
    }
  }

  return rep;
}

// ------------------------------------------------------- symbolic verifier

std::vector<WidthObligation> width_obligations(
    const ProtocolSpec& spec, const ir::ProtocolIR& p,
    const std::vector<ir::RegisterSummary>& sums) {
  std::vector<WidthObligation> out;
  const ir::WidthExpr budget =
      spec.claim.symbolic_bits.defined()
          ? spec.claim.symbolic_bits
          : ir::WidthExpr::constant(spec.claim.max_register_bits);
  for (std::size_t i = 0; i < p.registers.size(); ++i) {
    const ir::RegisterDecl& decl = p.registers[i];
    if (decl.width_bits == ir::kUnboundedWidth) continue;
    const int index = static_cast<int>(i);
    // A declaration is a fixed number chosen for one instantiation; under a
    // symbolic claim it is checked per-env by the static tier, not
    // quantified (⌈log₂ k⌉ at k=4 rightly declares 2 bits — that is no
    // all-params statement). Under a constant claim the declaration *is*
    // the strongest width fact, so it becomes an obligation.
    if (!spec.claim.symbolic_bits.defined()) {
      WidthObligation o;
      o.reg = index;
      o.reg_name = decl.name;
      o.what = "declared width";
      o.lhs = ir::WidthExpr::constant(decl.width_bits);
      o.budget = budget;
      out.push_back(std::move(o));
    }
    // The IR's derived write summary: the symbolic width when one was
    // stated, else the concrete interval's bit count. Unbounded value sets
    // are the static tier's finding, not a provable inequality.
    const ir::RegisterSummary& sum = sums[i];
    if (sum.written && !sum.values.unbounded) {
      WidthObligation o;
      o.reg = index;
      o.reg_name = decl.name;
      o.what = "derived write width";
      o.lhs = sum.sym.defined()
                  ? sum.sym
                  : ir::WidthExpr::constant(sum.values.max_bits());
      o.budget = budget;
      out.push_back(std::move(o));
    }
  }
  return out;
}

namespace {

/// Orders verdict strings by badness for per-register/aggregate joins.
int verdict_rank(const std::string& v) {
  if (v == "refuted") return 3;
  if (!v.empty() && v != "all params") return 2;  // the cutoff form
  if (v == "all params") return 1;
  return 0;
}

}  // namespace

ClaimVerification verify_claims(const ProtocolSpec& spec,
                                const ir::ProtocolIR& p,
                                const std::vector<ir::RegisterSummary>& sums) {
  ClaimVerification v;
  const std::string cutoff = "n <= " + std::to_string(ir::kCutoffN);
  v.status = "all params";
  const auto join = [](std::string& into, const std::string& with) {
    if (verdict_rank(with) > verdict_rank(into)) into = with;
  };
  for (const WidthObligation& o : width_obligations(spec, p, sums)) {
    const ir::Verdict verdict = ir::prove_le(o.lhs, o.budget);
    std::string status;
    switch (verdict.kind) {
      case ir::Verdict::Kind::Proved:
        status = "all params";
        break;
      case ir::Verdict::Kind::Unknown:
        // The prover's grid search found no witness (a grid violation
        // would have refuted), so the claim holds up to the cutoff.
        status = cutoff;
        break;
      case ir::Verdict::Kind::Refuted: {
        status = "refuted";
        std::ostringstream msg;
        msg << "claim [" << spec.claim.source << "] fails for some "
            << "parameters: " << o.what << " of register '" << o.reg_name
            << "' is " << o.lhs.render() << " but the budget is "
            << o.budget.render() << "; witness "
            << ir::render_env(verdict.witness) << " gives "
            << o.lhs.eval(verdict.witness) << " > "
            << o.budget.eval(verdict.witness) << " bits";
        Diagnostic d;
        d.rule = "static-width-all-n";
        d.protocol = spec.name;
        d.reg = o.reg;
        d.reg_name = o.reg_name;
        d.message = msg.str();
        v.refutations.push_back(std::move(d));
        break;
      }
    }
    join(v.per_register[o.reg], status);
    join(v.status, status);
  }
  return v;
}

ClaimVerification verify_claims(const ProtocolSpec& spec) {
  usage_check(static_cast<bool>(spec.describe),
              "verify_claims: spec has no describe() hook");
  ir::ProtocolIR p = spec.describe();
  p.params = spec.params;
  return verify_claims(spec, p, ir::summarize_full(p).registers);
}

ProtocolReport analyze_symbolic(const ProtocolSpec& spec) {
  ProtocolReport rep = analyze_static(spec);
  rep.mode = LintMode::Symbolic;
  if (!spec.describe) return rep;  // ir-missing already reported
  ir::ProtocolIR p = spec.describe();
  p.params = spec.params;
  ClaimVerification v = verify_claims(spec, p, ir::summarize_full(p).registers);
  rep.claim_verified = v.status;
  for (RegisterAudit& a : rep.registers) {
    if (const auto it = v.per_register.find(a.reg);
        it != v.per_register.end()) {
      a.verified = it->second;
    }
  }
  for (Diagnostic& d : v.refutations) {
    rep.diagnostics.push_back(std::move(d));
  }
  return rep;
}

ProtocolReport analyze_interference(const ProtocolSpec& spec,
                                    std::size_t max_pairs) {
  ProtocolReport rep;
  rep.name = spec.name;
  rep.claim_source = spec.claim.source;
  rep.claimed_register_bits = spec.claim.max_register_bits;
  rep.claimed_bits_expr = spec.claim.symbolic_bits.render();
  rep.mode = LintMode::Interference;

  const auto add = [&rep, &spec](Diagnostic d) {
    d.protocol = spec.name;
    rep.diagnostics.push_back(std::move(d));
  };

  if (!spec.describe) {
    Diagnostic d;
    d.rule = "ir-missing";
    d.message = "protocol has no describe() hook; the interference tier "
                "cannot audit it (add one or exempt it in the claims "
                "registry)";
    add(std::move(d));
    return rep;
  }

  ir::ProtocolIR p = spec.describe();
  p.params = spec.params;  // the spec's instantiation is authoritative

  const itf::Report r = itf::analyze(p);
  rep.interference_ops = static_cast<long>(r.ops.size());
  rep.interference_pairs = static_cast<long>(r.pairs.size());
  rep.interference_independent = r.independent;
  const std::size_t detail =
      max_pairs == 0 ? r.pairs.size() : std::min(r.pairs.size(), max_pairs);
  rep.interference_truncated = r.pairs.size() > detail;
  rep.interference.reserve(detail);
  for (std::size_t i = 0; i < detail; ++i) {
    const itf::OpPair& op = r.pairs[i];
    InterferencePair row;
    row.a = r.ops[static_cast<std::size_t>(op.a)].label;
    row.b = r.ops[static_cast<std::size_t>(op.b)].label;
    row.independent = op.verdict.independent;
    row.reason = itf::render_reason(op.verdict, p.registers);
    rep.interference.push_back(std::move(row));
  }

  // Register audit rows, same derivation as the static tier (so the JSON
  // registers[] block stays populated and comparable across modes).
  const std::vector<ir::RegisterSummary> sums = ir::summarize_full(p).registers;
  for (std::size_t i = 0; i < p.registers.size(); ++i) {
    rep.registers.push_back(
        audit_row(static_cast<int>(i), p.registers[i], sums[i]));
  }

  // `static-interference`: a bounded register some process writes, but that
  // no cross-process op pair ever conflicts on (before the may-violate
  // veto — contended_registers uses the raw footprint overlap). Every
  // schedule-sensitive behavior of the register is then confined to one
  // process's program order, so the width bound constrains nothing that
  // contention could expose: either the bound is decorative or the claims
  // registry misdeclares who touches the register.
  const std::vector<bool> contended =
      itf::contended_registers(r, p.registers.size());
  for (std::size_t i = 0; i < p.registers.size(); ++i) {
    const ir::RegisterDecl& decl = p.registers[i];
    if (decl.width_bits == ir::kUnboundedWidth) continue;
    if (!sums[i].written) continue;
    if (contended[i]) continue;
    std::ostringstream msg;
    msg << "bounded register '" << decl.name << "' (" << decl.width_bits
        << " bits) is written but never accessed in cross-process "
           "conflict: its width claim is vacuous under contention";
    Diagnostic d;
    d.rule = "static-interference";
    d.severity = Severity::Warning;
    d.pid = decl.writer;
    d.reg = static_cast<int>(i);
    d.reg_name = decl.name;
    d.message = msg.str();
    add(std::move(d));
  }

  return rep;
}

// ----------------------------------------------------------- step tier

std::vector<StepObligation> step_obligations(const ProtocolSpec& spec,
                                             const ir::ProtocolIR& p) {
  std::vector<StepObligation> out;
  if (!spec.step_claim.max_steps.defined()) return out;
  const ir::StepReport bounds = ir::step_bounds(p);
  for (const ir::ProcessStepBound& b : bounds.processes) {
    if (!b.finite) continue;  // serve/unproven: no provable inequality
    StepObligation o;
    o.pid = b.pid;
    o.bound = b.bound;
    o.budget = spec.step_claim.max_steps;
    out.push_back(std::move(o));
  }
  return out;
}

StepVerification verify_step_claims(const ProtocolSpec& spec,
                                    const ir::ProtocolIR& p) {
  StepVerification v;
  if (!spec.step_claim.max_steps.defined()) return v;  // status stays ""
  const std::string cutoff = "n <= " + std::to_string(ir::kCutoffN);
  v.status = "all params";
  const auto join = [](std::string& into, const std::string& with) {
    if (verdict_rank(with) > verdict_rank(into)) into = with;
  };
  for (const StepObligation& o : step_obligations(spec, p)) {
    const ir::Verdict verdict = ir::prove_le(o.bound, o.budget);
    std::string status;
    switch (verdict.kind) {
      case ir::Verdict::Kind::Proved:
        status = "all params";
        break;
      case ir::Verdict::Kind::Unknown:
        status = cutoff;
        break;
      case ir::Verdict::Kind::Refuted: {
        status = "refuted";
        std::ostringstream msg;
        msg << "step claim [" << spec.step_claim.source << "] fails for "
            << "some parameters: process " << o.pid << "'s derived bound is "
            << o.bound.render() << " steps but the budget is "
            << o.budget.render() << "; witness "
            << ir::render_env(verdict.witness) << " gives "
            << o.bound.eval(verdict.witness) << " > "
            << o.budget.eval(verdict.witness) << " steps";
        Diagnostic d;
        d.rule = "static-step-bound";
        d.protocol = spec.name;
        d.pid = o.pid;
        d.message = msg.str();
        v.refutations.push_back(std::move(d));
        break;
      }
    }
    join(v.per_process[o.pid], status);
    join(v.status, status);
  }
  return v;
}

ProtocolReport analyze_steps(const ProtocolSpec& spec) {
  ProtocolReport rep;
  rep.name = spec.name;
  rep.claim_source = spec.claim.source;
  rep.claimed_register_bits = spec.claim.max_register_bits;
  rep.claimed_bits_expr = spec.claim.symbolic_bits.render();
  rep.mode = LintMode::Steps;
  rep.step_claim_expr = spec.step_claim.max_steps.render();
  rep.step_claim_source = spec.step_claim.source;

  const auto add = [&rep, &spec](Diagnostic d) {
    d.protocol = spec.name;
    rep.diagnostics.push_back(std::move(d));
  };

  if (!spec.describe) {
    Diagnostic d;
    d.rule = "ir-missing";
    d.message = "protocol has no describe() hook; the step tier cannot "
                "audit it (add one or exempt it in the claims registry)";
    add(std::move(d));
    return rep;
  }

  ir::ProtocolIR p = spec.describe();
  p.params = spec.params;  // the spec's instantiation is authoritative

  const ir::StepReport bounds = ir::step_bounds(p);
  StepVerification v = verify_step_claims(spec, p);
  rep.step_verified = v.status;

  for (const ir::ProcessStepBound& b : bounds.processes) {
    StepAudit a;
    a.pid = b.pid;
    a.finite = b.finite;
    a.serve = b.serve;
    a.bound = b.finite ? b.bound.render() : "∞";
    a.bound_eval = b.finite ? b.bound.eval(spec.params) : -1;
    if (const auto it = v.per_process.find(b.pid);
        it != v.per_process.end()) {
      a.verified = it->second;
    }
    rep.steps.push_back(std::move(a));

    // An undeclared [0, ∞] loop: nothing proves the process terminates.
    for (const std::string& loop : b.nonterminating) {
      std::ostringstream msg;
      msg << "process " << b.pid << " contains a [0, ∞] loop with no "
          << "termination argument — neither a declared serve pump nor "
          << "capped by a declared round budget: " << loop;
      Diagnostic d;
      d.rule = "static-termination";
      d.pid = b.pid;
      d.message = msg.str();
      add(std::move(d));
    }
  }

  for (Diagnostic& d : v.refutations) {
    rep.diagnostics.push_back(std::move(d));
  }
  return rep;
}

std::vector<Diagnostic> cross_validate_steps(const ProtocolSpec& spec,
                                             const ProtocolReport& rep) {
  std::vector<Diagnostic> out;
  for (const StepAudit& a : rep.steps) {
    if (!a.finite || a.observed < 0) continue;
    if (a.observed <= a.bound_eval) continue;
    std::ostringstream msg;
    msg << "explorer observed " << a.observed << " steps by process "
        << a.pid << " on one schedule, but the symbolic bound " << a.bound
        << " evaluates to " << a.bound_eval
        << " at this instantiation — the static step engine is unsound "
           "or the IR under-declares a trip count";
    Diagnostic d;
    d.rule = "static-dynamic-disagreement";
    d.protocol = spec.name;
    d.pid = a.pid;
    d.message = msg.str();
    out.push_back(std::move(d));
  }
  return out;
}

namespace {

/// Maps a dynamic error rule to the static rule that must accompany it.
/// Rules absent from the table (step-atomicity, warnings) have no static
/// counterpart — the IR does not model step structure.
const char* static_rule_for(const std::string& dynamic_rule) {
  if (dynamic_rule == "claim-width" || dynamic_rule == "claim-usage" ||
      dynamic_rule == "width-overflow") {
    return "static-width";
  }
  if (dynamic_rule == "write-once") return "static-write-once";
  if (dynamic_rule == "swmr-ownership") return "static-ownership";
  if (dynamic_rule == "bottom-escape") return "static-bottom";
  if (dynamic_rule == "topology") return "static-topology";
  if (dynamic_rule == "round-bound") return "static-round-bound";
  return nullptr;
}

}  // namespace

std::vector<Diagnostic> cross_validate(const ProtocolSpec& spec,
                                       const ProtocolReport& stat,
                                       const ProtocolReport& dyn) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : stat.diagnostics) {
    if (d.rule == "ir-missing") return out;  // nothing to compare against
  }

  const auto disagree = [&out, &spec](int reg, const std::string& reg_name,
                                      std::string msg) {
    Diagnostic d;
    d.rule = "static-dynamic-disagreement";
    d.protocol = spec.name;
    d.reg = reg;
    d.reg_name = reg_name;
    d.message = std::move(msg);
    out.push_back(std::move(d));
  };

  // The register tables must be identical — the IR mirrors the factory.
  if (stat.registers.size() != dyn.registers.size()) {
    std::ostringstream msg;
    msg << "IR declares " << stat.registers.size()
        << " registers but the factory's Sim has " << dyn.registers.size();
    disagree(-1, "", msg.str());
    return out;
  }
  for (std::size_t i = 0; i < stat.registers.size(); ++i) {
    const RegisterAudit& s = stat.registers[i];
    const RegisterAudit& d = dyn.registers[i];
    if (s.name != d.name || s.writer != d.writer ||
        s.declared_bits != d.declared_bits || s.write_once != d.write_once ||
        s.allows_bottom != d.allows_bottom) {
      std::ostringstream msg;
      msg << "register " << i << " declaration differs: IR has ('" << s.name
          << "', writer " << s.writer << ", " << s.declared_bits
          << " bits, write_once=" << s.write_once
          << ", allows_bottom=" << s.allows_bottom << "), Sim has ('"
          << d.name << "', writer " << d.writer << ", " << d.declared_bits
          << " bits, write_once=" << d.write_once
          << ", allows_bottom=" << d.allows_bottom << ")";
      disagree(static_cast<int>(i), d.name, msg.str());
      continue;
    }
    // Static facts over-approximate every execution, so only the dynamic-
    // exceeds-static direction is a disagreement; static slack is expected.
    if (s.max_bits != -1 && d.max_bits > s.max_bits) {
      std::ostringstream msg;
      msg << "explorer observed " << d.max_bits << "-bit values in '"
          << d.name << "' but the IR derives at most " << s.max_bits;
      disagree(static_cast<int>(i), d.name, msg.str());
    }
    if (s.max_writes != -1 && d.max_writes > s.max_writes) {
      std::ostringstream msg;
      msg << "explorer observed " << d.max_writes << " writes to '" << d.name
          << "' in one execution but the IR derives at most " << s.max_writes;
      disagree(static_cast<int>(i), d.name, msg.str());
    }
    if (d.read && !s.read) {
      disagree(static_cast<int>(i), d.name,
               "explorer observed a read of '" + d.name +
                   "' but no IR path reads it");
    }
  }

  // Every dynamic model violation must have a static counterpart on the
  // same register (same process for the register-free per-process checks).
  for (const Diagnostic& d : dyn.diagnostics) {
    if (d.severity != Severity::Error) continue;
    const char* want = static_rule_for(d.rule);
    if (want == nullptr) continue;
    bool matched = false;
    for (const Diagnostic& s : stat.diagnostics) {
      if (s.rule != want || s.reg != d.reg) continue;
      if (d.reg == -1 && s.pid != d.pid) continue;
      matched = true;
      break;
    }
    if (!matched) {
      std::ostringstream msg;
      msg << "dynamic " << d.rule << " diagnostic (" << d.message
          << ") has no matching " << want << " finding in the static tier";
      disagree(d.reg, d.reg_name, msg.str());
    }
  }
  return out;
}

}  // namespace bsr::analysis
