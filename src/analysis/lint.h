// The `bsr lint` driver: analyze registered protocols, print diagnostics.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace bsr::analysis {

struct ProtocolSpec;

/// Which analyzer tier(s) `bsr lint` runs.
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

/// The mode names parse_lint_mode accepts, in the words its callers' usage
/// errors list them.
inline constexpr const char* kLintModeNames =
    "dynamic, static, symbolic, both, interference, or steps";

/// Maps a mode name (`bsr lint --mode`, serve's `lint_mode`) to its tier;
/// empty means Dynamic. nullopt for an unknown name.
[[nodiscard]] std::optional<LintMode> parse_lint_mode(const std::string& name);

struct LintOptions {
  /// Protocols to analyze by registry name. Empty = every built-in protocol
  /// except intentionally-misdeclared demos (which only run when named).
  std::vector<std::string> protocols;
  LintMode mode = LintMode::Dynamic;
  bool json = false;  ///< Emit one JSON document instead of text.
  bool list = false;  ///< Just list the registry; analyze nothing.
  bool help = false;  ///< Print usage and exit 0.
  /// Cap on rendered interference pair detail (`--mode=interference`
  /// `--max-pairs=N`); 0 = unlimited. The default mirrors
  /// kMaxInterferenceDetail (diag.h); totals always cover the full
  /// relation regardless of the cap.
  std::size_t max_pairs = 2048;
  /// Registry override: analyze these specs instead of builtin_protocols().
  /// Not reachable from the CLI — `bsr serve` differential tests use it to
  /// lint instrumented specs (e.g. counting factories that prove a cache
  /// hit runs zero simulator steps). nullptr = the built-in registry.
  const std::vector<ProtocolSpec>* registry = nullptr;
};

/// Runs the conformance analyzer per LintOptions, writing findings to `out`
/// and operational errors to `err`. Exit status: 0 = no errors (warnings
/// allowed), 1 = at least one error-severity diagnostic, 2 = usage or
/// internal failure (unknown protocol, exploration bound exceeded,
/// static/dynamic disagreement).
int run_lint(const LintOptions& opts, std::ostream& out, std::ostream& err);

}  // namespace bsr::analysis
