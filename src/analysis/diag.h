// Structured diagnostics for the model-conformance analyzer.
//
// A Diagnostic is one finding of the analyzer: a stable rule id (the full
// catalogue, with the paper result grounding each rule, is documented in
// docs/ANALYSIS.md), a severity, and enough context to reproduce the
// finding — the process, the register, the step index within the schedule,
// and a fingerprint of the schedule itself. Diagnostics flow through
// pluggable sinks: TextSink for humans, JsonSink for machines (`bsr lint
// --json`, CI annotations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/sched.h"

namespace bsr::analysis {

enum class Severity {
  Warning,  ///< Suspicious but conforming (dead register, unused width).
  Error,    ///< A model or paper-claim violation; fails `bsr lint`.
};

[[nodiscard]] std::string to_string(Severity s);

/// Which analyzer tier(s) `bsr lint` runs, and which produced a report.
enum class LintMode {
  Dynamic,   ///< Explore executions (the default).
  Static,    ///< Abstract interpretation over protocol IR; zero sim steps.
  Symbolic,  ///< Static tier plus the symbolic width prover: claims are
             ///< verified for all parameter valuations (or refuted with a
             ///< witness ParamEnv — an error, exit 1 — or downgraded to a
             ///< small-n cutoff sweep).
  Both,      ///< Run dynamic and static and cross-validate them; any
             ///< disagreement is an internal error (exit 2), each tier
             ///< being the other's oracle.
  Interference,  ///< Static op-footprint interference analysis over the
                 ///< protocol IR: classify every cross-process op pair as
                 ///< independent or may-interfere (the relation the
                 ///< explorer's sleep-set POR consumes) and flag bounded
                 ///< registers no pair ever conflicts on
                 ///< (`static-interference`).
  Steps,     ///< Symbolic step-complexity tier: derive per-process step
             ///< bounds from the IR (`static-termination` on undeclared
             ///< [0, ∞] loops), prove them against the step claims for all
             ///< parameter valuations (`static-step-bound`), and
             ///< cross-validate against the max steps the dynamic tier
             ///< observes (disagreement = exit 2, as in `--mode=both`).
};

/// The tier's name, as reports print it and parse_lint_mode reads it.
[[nodiscard]] std::string to_string(LintMode m);

/// One analyzer finding. Fields that do not apply are left at their
/// defaults: aggregate findings (claim checks, dead registers) have no
/// step/fingerprint; step-level findings on channels have reg = -1.
struct Diagnostic {
  std::string rule;            ///< Stable rule id, e.g. "swmr-ownership".
  Severity severity = Severity::Error;
  std::string protocol;        ///< Registry name of the analyzed protocol.
  sim::Pid pid = -1;           ///< Offending process (-1: not process-local).
  int reg = -1;                ///< Register index (-1: not register-local).
  std::string reg_name;        ///< Declared register name, if reg != -1.
  long step = -1;              ///< Step index within the execution (-1: n/a).
  /// Fingerprint of the schedule exhibiting the finding ("" for aggregate
  /// findings). For sampled protocols this is "seed:<n>".
  std::string fingerprint;
  std::string message;
};

/// FNV-1a fingerprint of a schedule, for cross-referencing diagnostics with
/// replayable executions (stable across runs and engines).
[[nodiscard]] std::string schedule_fingerprint(
    const std::vector<sim::Choice>& schedule);

/// Per-register facts a report carries: the declaration plus the tier's
/// derived (static) or observed (dynamic) usage. The cross-validator
/// compares a static and a dynamic row field by field.
struct RegisterAudit {
  int reg = -1;            ///< Index into the protocol's register table.
  std::string name;
  int writer = -1;
  int declared_bits = -1;  ///< -1 = unbounded.
  bool write_once = false;
  bool allows_bottom = false;
  int max_bits = 0;        ///< Bits used/derivable; -1 = no finite bound.
  long max_writes = 0;     ///< Writes per execution; -1 = no finite bound.
  bool read = false;       ///< Read on some execution / some abstract path.
  /// Rendered symbolic width of the register's writes (static tier only;
  /// "" when no write was stated symbolically).
  std::string sym_bits;
  /// Symbolic-prover verdict for this register's width obligations
  /// (`--mode=symbolic` only): "all params" when proved for every
  /// assumption-satisfying ParamEnv, "n <= N" when only the small-n cutoff
  /// sweep closed it, "refuted" when a witness environment violates it,
  /// "" when the register carries no obligation (or the prover did not run).
  std::string verified;
};

/// One cross-process op pair from the static interference analysis
/// (`--mode=interference`): the two op sites (rendered labels), the
/// verdict, and the rule that justified it (see
/// analysis/static/interference.h for the soundness argument).
/// Cap on stored InterferencePair detail rows per report. Stack-based
/// protocols flatten to hundreds of op sites (hundreds of thousands of
/// pairs); the totals always cover the full relation, only the rendered
/// detail is truncated.
inline constexpr std::size_t kMaxInterferenceDetail = 2048;

struct InterferencePair {
  std::string a;              ///< Label of the first op site, e.g. "p0 write 'r'".
  std::string b;              ///< Label of the second op site.
  bool independent = false;   ///< Proven to commute in every state.
  std::string reason;         ///< Human-readable justification of the verdict.
};

/// One process row of the step-complexity tier (`--mode=steps`): the
/// symbolic bound the static engine derived, its value at the spec's
/// ParamEnv, the max steps the dynamic tier actually observed on any
/// schedule, and the prover's verdict on "bound ≤ step claim".
struct StepAudit {
  sim::Pid pid = -1;
  std::string bound;     ///< Rendered symbolic bound; "∞" when !finite.
  bool finite = true;
  bool serve = false;    ///< Declared serve pump (exempt ∞).
  long bound_eval = -1;  ///< Bound at the spec's ParamEnv (-1: no bound).
  long observed = -1;    ///< Dynamic max steps seen (-1: not measured).
  /// Prover verdict for this process's obligation: "all params", "n <= N",
  /// "refuted", or "" (no finite claim or no finite bound).
  std::string verified;
};

/// Everything the analyzer learned about one protocol.
struct ProtocolReport {
  std::string name;
  std::string claim_source;      ///< Paper grounding of the width claim.
  LintMode mode = LintMode::Dynamic;  ///< Which tier produced this report.
  bool sampled = false;          ///< True: seeded sampling, not exhaustive.
  long executions = 0;           ///< Explored leaves / sampled runs (0: static).
  int max_bounded_bits_used = 0; ///< Max over every explored execution.
  int claimed_register_bits = 0; ///< The paper's per-register budget.
  /// Rendered symbolic claim ("" when the claim is a plain constant). The
  /// budget actually enforced is this expression evaluated at the spec's
  /// ParamEnv, which must agree with claimed_register_bits.
  std::string claimed_bits_expr;
  /// Aggregate prover verdict over every register obligation
  /// (`--mode=symbolic` only): "all params", "n <= N", or "refuted";
  /// "" when the prover did not run on this report.
  std::string claim_verified;
  std::vector<RegisterAudit> registers;
  std::vector<Diagnostic> diagnostics;
  /// Interference tier (`--mode=interference`) only: totals over every
  /// cross-process op pair, plus the pair verdicts themselves (capped at
  /// kMaxInterferenceDetail entries; `interference_truncated` says whether
  /// the cap hit — the totals always cover the full relation).
  long interference_ops = 0;          ///< Op sites across all processes.
  long interference_pairs = 0;        ///< Cross-process pairs classified.
  long interference_independent = 0;  ///< Pairs proven independent.
  bool interference_truncated = false;
  std::vector<InterferencePair> interference;
  /// Step tier (`--mode=steps`) only: the declared per-process step claim
  /// ("" when the spec makes no finite step claim), its paper grounding,
  /// the aggregate prover verdict over every process obligation, and one
  /// audit row per process.
  std::string step_claim_expr;
  std::string step_claim_source;
  std::string step_verified;
  std::vector<StepAudit> steps;
  /// Dynamic tier only: max atomic steps each process (indexed by pid) was
  /// observed taking on any explored/sampled schedule. Not serialized —
  /// the step tier merges it into its StepAudit rows.
  std::vector<long> observed_steps;

  [[nodiscard]] int errors() const;
  [[nodiscard]] int warnings() const;
};

/// Consumer of analyzer output. `report` is called once per analyzed
/// protocol; `close` once at the end with the totals.
class DiagnosticSink {
 public:
  virtual ~DiagnosticSink() = default;
  virtual void report(const ProtocolReport& r) = 0;
  virtual void close(int errors, int warnings) = 0;
};

/// Human-readable sink: one header line per protocol, one line per finding.
class TextSink : public DiagnosticSink {
 public:
  explicit TextSink(std::ostream& os) : os_(os) {}
  void report(const ProtocolReport& r) override;
  void close(int errors, int warnings) override;

 private:
  std::ostream& os_;
};

/// Machine-readable sink: buffers every report and emits one JSON document
/// `{"protocols": [...], "errors": N, "warnings": N}` on close.
class JsonSink : public DiagnosticSink {
 public:
  explicit JsonSink(std::ostream& os) : os_(os) {}
  void report(const ProtocolReport& r) override;
  void close(int errors, int warnings) override;

 private:
  std::ostream& os_;
  std::vector<ProtocolReport> reports_;
};

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters; non-ASCII bytes pass through, so UTF-8
/// register names such as ⊥ stay readable).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace bsr::analysis
