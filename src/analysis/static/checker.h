// The static tier of `bsr lint`: abstract-interpretation width checking
// over protocol IR, plus cross-validation against the dynamic analyzer.
//
// `analyze_static` consumes a ProtocolSpec's `describe()` IR, derives
// per-register facts with ir::summarize, and checks them against the spec's
// WidthClaim — with zero simulator steps. Its rule ids mirror the dynamic
// analyzer's: `static-width` (declared or derivable width exceeds the
// declaration or the claim), `static-write-once`, `static-ownership`,
// `static-bottom`, `static-dead-register` (warning), and `ir-missing` when
// a spec has no describe hook. `loop-shape` is reflection-specific: the
// spec's body is reflected a second time under perturbed read results
// (proto::ScopedReadPerturbation) and any IR difference means the body's
// structure depends on data the solo reflection cannot see.
//
// `cross_validate` makes each tier the other's oracle: the static facts are
// a sound over-approximation of every execution, so any dynamic observation
// exceeding them — or any dynamic model violation with no static
// counterpart — is an internal error (`static-dynamic-disagreement`), not a
// protocol finding. Static slack in the other direction (derived bounds the
// explorer never reaches) is expected and never flagged.
//
// `analyze_symbolic` is the third tier (`bsr lint --mode=symbolic`): the
// full static rule set plus the symbolic width prover (static/prover.h). It
// extracts one proof obligation per bounded register — `lhs ≤ budget` with
// both sides WidthExprs over the model parameters — and asks the prover to
// decide it for *all* assumption-satisfying ParamEnvs, not just the spec's
// own instantiation. The verdict lands in three places: per-register
// (`RegisterAudit::verified`), per-protocol (`ProtocolReport::
// claim_verified`), and — for refuted obligations — as a new
// `static-width-all-n` error carrying the concrete witness environment.
//
// This lives in bsr_analysis (not bsr_ir): it needs the claims registry,
// which sits above core in the layering.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/claims.h"
#include "analysis/diag.h"
#include "analysis/static/prover.h"

namespace bsr::analysis {

/// Runs the static rule set over `spec.describe()`. The returned report has
/// mode = LintMode::Static and executions = 0. A spec without a describe
/// hook yields a single `ir-missing` error.
[[nodiscard]] ProtocolReport analyze_static(const ProtocolSpec& spec);

/// One `lhs ≤ budget` proof obligation the prover must discharge for every
/// assumption-satisfying ParamEnv.
struct WidthObligation {
  int reg = -1;           ///< Register index the obligation is about.
  std::string reg_name;
  /// What the lhs measures: "declared width" (the register's declaration,
  /// only when the claim is a plain constant — a declaration under a
  /// symbolic claim is an instantiation artifact and is checked per-env
  /// instead) or "derived write width" (the IR's symbolic or interval
  /// write summary).
  std::string what;
  ir::WidthExpr lhs;
  ir::WidthExpr budget;   ///< The claim: symbolic_bits or the constant.
};

/// Extracts the spec's obligation set from its IR and register summaries
/// (one entry per check the prover should quantify over all parameters).
[[nodiscard]] std::vector<WidthObligation> width_obligations(
    const ProtocolSpec& spec, const ir::ProtocolIR& p,
    const std::vector<ir::RegisterSummary>& sums);

/// The prover's verdict over a spec's whole obligation set. Status strings
/// are canonical: "all params" (every obligation proved — including the
/// vacuous case of no obligations), "n <= N" (some obligation only closed
/// by the cutoff sweep over the assumption grid), "refuted" (some
/// obligation has a witness environment violating it).
struct ClaimVerification {
  std::string status;                        ///< Aggregate, see above.
  std::map<int, std::string> per_register;   ///< reg index → status.
  /// One `static-width-all-n` error per refuted obligation, witness env
  /// and evaluated widths in the message.
  std::vector<Diagnostic> refutations;
};

/// Runs the symbolic prover over the spec's obligations. The overload
/// without IR re-reflects via `spec.describe()` (requires the hook).
[[nodiscard]] ClaimVerification verify_claims(
    const ProtocolSpec& spec, const ir::ProtocolIR& p,
    const std::vector<ir::RegisterSummary>& sums);
[[nodiscard]] ClaimVerification verify_claims(const ProtocolSpec& spec);

/// The symbolic tier: everything `analyze_static` checks, plus all-params
/// claim verification. The returned report has mode = LintMode::Symbolic;
/// refuted obligations appear as `static-width-all-n` errors (so the lint
/// exit-code contract is unchanged: refutation ⇒ exit 1).
[[nodiscard]] ProtocolReport analyze_symbolic(const ProtocolSpec& spec);

/// The interference tier (`bsr lint --mode=interference`): runs the static
/// op-footprint independence analysis (analysis/static/interference.h) over
/// the spec's reflected IR and reports every cross-process op pair with its
/// verdict and justification. The returned report has mode =
/// LintMode::Interference. One rule fires here: `static-interference`
/// (warning) flags each bounded, written register that no cross-process
/// pair ever conflicts on — its width claim is vacuous under contention, so
/// either the bound is decorative or the registry misdeclares who touches
/// it.
/// A spec without a describe hook yields a single `ir-missing` error.
/// `max_pairs` caps the rendered pair detail (`--max-pairs`; 0 = unlimited;
/// the totals always cover the full relation).
[[nodiscard]] ProtocolReport analyze_interference(
    const ProtocolSpec& spec, std::size_t max_pairs = kMaxInterferenceDetail);

/// One `derived bound ≤ step budget` proof obligation: a process whose
/// symbolic step bound is finite, under a spec that states a finite step
/// claim. Serve-exempt processes and claimless specs contribute none.
struct StepObligation {
  int pid = -1;
  ir::WidthExpr bound;    ///< The engine's derived per-process bound.
  ir::WidthExpr budget;   ///< The spec's step claim.
};

/// Extracts the spec's step obligations from its IR (one per process with
/// a finite derived bound, when `spec.step_claim.max_steps` is defined).
[[nodiscard]] std::vector<StepObligation> step_obligations(
    const ProtocolSpec& spec, const ir::ProtocolIR& p);

/// The prover's verdict over a spec's step obligations; same status
/// strings as ClaimVerification ("" when the spec makes no finite step
/// claim). Refutations carry the `static-step-bound` rule with a witness
/// environment.
struct StepVerification {
  std::string status;
  std::map<int, std::string> per_process;  ///< pid → status.
  std::vector<Diagnostic> refutations;
};

[[nodiscard]] StepVerification verify_step_claims(const ProtocolSpec& spec,
                                                  const ir::ProtocolIR& p);

/// The static half of the step tier (`bsr lint --mode=steps`): derives
/// per-process symbolic step bounds (static/steps.h), raises one
/// `static-termination` error per undeclared [0, ∞] loop, proves every
/// finite bound against the spec's step claim for all parameter values
/// (`static-step-bound` on refutation), and fills one StepAudit row per
/// process with `observed = -1`. The lint driver merges the dynamic
/// tier's observed per-process max step counts into those rows and calls
/// `cross_validate_steps`. The returned report has mode = LintMode::Steps.
[[nodiscard]] ProtocolReport analyze_steps(const ProtocolSpec& spec);

/// Checks a merged step report's observation against its bounds: a
/// dynamically observed per-process max step count exceeding the symbolic
/// bound evaluated at the spec's ParamEnv is an internal error
/// (`static-dynamic-disagreement`, exit 2) — exhaustive exploration
/// visits every schedule, so the static bound cannot be undercut by a
/// sound engine. Rows without a finite bound or without an observation
/// are skipped.
[[nodiscard]] std::vector<Diagnostic> cross_validate_steps(
    const ProtocolSpec& spec, const ProtocolReport& rep);

/// Compares a static and a dynamic report of the same spec and returns one
/// `static-dynamic-disagreement` diagnostic per inconsistency (empty when
/// the tiers agree, or when the static tier reported `ir-missing`).
[[nodiscard]] std::vector<Diagnostic> cross_validate(
    const ProtocolSpec& spec, const ProtocolReport& stat,
    const ProtocolReport& dyn);

}  // namespace bsr::analysis
