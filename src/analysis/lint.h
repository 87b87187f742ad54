// The `bsr lint` driver: analyze registered protocols, print diagnostics.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diag.h"

namespace bsr::analysis {

struct ProtocolSpec;

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
