#include "analysis/lint.h"

#include <exception>
#include <memory>
#include <ostream>

#include "analysis/analyzer.h"
#include "analysis/claims.h"
#include "analysis/diag.h"
#include "analysis/static/checker.h"

namespace bsr::analysis {

namespace {

constexpr const char* kUsage =
    R"(usage: bsr lint [options]

Runs the model-conformance analyzer (docs/ANALYSIS.md) over the built-in
protocol registry: register-width claims, SWMR/write-once/bottom discipline,
dead registers, and reflection stability (the static tier re-reflects each
builder body under perturbed reads and flags shape drift as `loop-shape`).

options:
  --protocol NAME[,NAME...]   analyze only the named protocols; default is
                              every built-in protocol except the
                              intentionally-misdeclared demos
  --mode dynamic|static|symbolic|both|interference|steps
                              dynamic: explore executions and audit the
                              observed behavior (default); static: abstract
                              interpretation over each protocol's IR, zero
                              simulator steps; symbolic: the static tier
                              plus the width prover — every claim is
                              verified for all parameter valuations
                              (all params / n <= cutoff / refuted with a
                              witness environment); both: run dynamic and
                              static and cross-validate them;
                              interference: classify every cross-process op
                              pair of the IR as independent or
                              may-interfere (the relation `bsr explore
                              --por` consumes) and warn on bounded
                              registers no pair conflicts on
                              (static-interference); steps: derive
                              per-process symbolic step bounds from the IR
                              (static-termination on undeclared [0, ∞]
                              loops), prove them against the step claims
                              for all parameter valuations
                              (static-step-bound), and cross-validate the
                              bounds against the max steps the explorer
                              observes
  --static                    shorthand for --mode static
  --max-pairs N               interference mode: cap on rendered pair
                              detail rows per protocol (default 2048;
                              0 = unlimited; totals always cover the full
                              relation)
  --json                      emit one JSON document instead of text
  --list                      list the protocol registry (with each claim's
                              verification status) and exit
  --help                      print this help and exit

exit codes:
  0  no error-severity diagnostics (warnings allowed)
  1  at least one error-severity diagnostic (symbolic mode: includes
     claims refuted for some parameter valuation, witness in the message;
     steps mode: includes unproven [0, ∞] loops and refuted step claims)
  2  usage or internal failure (unknown flag or protocol, exploration
     bounds exceeded, static/dynamic disagreement — including an observed
     step count exceeding the symbolic bound)
)";

int run_lint_impl(const LintOptions& opts, std::ostream& out,
                  std::ostream& err) {
  if (opts.help) {
    out << kUsage;
    return 0;
  }
  const std::vector<ProtocolSpec>& registry =
      opts.registry != nullptr ? *opts.registry : builtin_protocols();
  if (opts.list) {
    for (const ProtocolSpec& s : registry) {
      out << s.name << (s.demo ? " (demo)" : "") << ": " << s.description
          << " [" << s.claim.source << "]";
      // Claim-verification status: what the symbolic prover can say about
      // this spec's width claims ("per-env only" when it has no IR to
      // reason over, so only per-instantiation checks apply).
      std::string status = "per-env only";
      if (s.describe) {
        try {
          status = "verified: " + verify_claims(s).status;
        } catch (const std::exception&) {
          status = "per-env only";
        }
      }
      out << " — " << status;
      // Step-bound status: the prover's verdict on the step claim, or why
      // there is nothing to prove (serve pumps, claimless specs, unproven
      // loops).
      if (s.describe) {
        try {
          const ProtocolReport sr = analyze_steps(s);
          std::string steps_status = sr.step_verified;
          if (steps_status.empty()) {
            bool serve = false;
            for (const StepAudit& a : sr.steps) serve = serve || a.serve;
            steps_status = sr.errors() > 0 ? "unproven"
                           : serve        ? "serve (no finite bound)"
                                          : "no claim";
          }
          out << ", steps: " << steps_status;
        } catch (const std::exception&) {
          // leave the column off: the spec cannot be reflected
        }
      }
      out << "\n";
    }
    return 0;
  }

  std::vector<const ProtocolSpec*> specs;
  if (opts.protocols.empty()) {
    for (const ProtocolSpec& s : registry) {
      if (!s.demo) specs.push_back(&s);
    }
  } else {
    for (const std::string& name : opts.protocols) {
      const ProtocolSpec* s = nullptr;
      for (const ProtocolSpec& known : registry) {
        if (known.name == name) {
          s = &known;
          break;
        }
      }
      if (s == nullptr) {
        err << "bsr lint: no-such-protocol: unknown protocol '" << name
            << "' (see `bsr lint --list`)\nregistered protocols:";
        for (const ProtocolSpec& known : registry) {
          err << " " << known.name;
        }
        err << "\n";
        return 2;
      }
      specs.push_back(s);
    }
  }

  std::unique_ptr<DiagnosticSink> sink;
  if (opts.json) {
    sink = std::make_unique<JsonSink>(out);
  } else {
    sink = std::make_unique<TextSink>(out);
  }

  int errors = 0;
  int warnings = 0;
  long disagreements = 0;
  for (const ProtocolSpec* spec : specs) {
    try {
      ProtocolReport rep;
      if (opts.mode == LintMode::Static) {
        rep = analyze_static(*spec);
      } else if (opts.mode == LintMode::Symbolic) {
        rep = analyze_symbolic(*spec);
      } else if (opts.mode == LintMode::Interference) {
        rep = analyze_interference(*spec, opts.max_pairs);
      } else if (opts.mode == LintMode::Steps) {
        // Steps: the static engine derives and proves the bounds; the
        // dynamic tier supplies the observed per-process maxima the
        // cross-validator checks them against. Width findings stay in the
        // per-env tiers — only step findings surface here.
        rep = analyze_steps(*spec);
        const ProtocolReport dyn = analyze_protocol(*spec);
        rep.sampled = dyn.sampled;
        rep.executions = dyn.executions;
        rep.max_bounded_bits_used = dyn.max_bounded_bits_used;
        for (StepAudit& a : rep.steps) {
          const auto pid = static_cast<std::size_t>(a.pid);
          if (pid < dyn.observed_steps.size()) {
            a.observed = dyn.observed_steps[pid];
          }
        }
        std::vector<Diagnostic> dis = cross_validate_steps(*spec, rep);
        disagreements += static_cast<long>(dis.size());
        for (Diagnostic& d : dis) rep.diagnostics.push_back(std::move(d));
      } else if (opts.mode == LintMode::Dynamic) {
        rep = analyze_protocol(*spec);
      } else {
        // Both: the dynamic report is the base; the static tier's findings
        // and any cross-validation disagreements are appended to it.
        const ProtocolReport stat = analyze_static(*spec);
        rep = analyze_protocol(*spec);
        rep.mode = LintMode::Both;
        std::vector<Diagnostic> dis = cross_validate(*spec, stat, rep);
        disagreements += static_cast<long>(dis.size());
        for (const Diagnostic& d : stat.diagnostics) {
          rep.diagnostics.push_back(d);
        }
        for (Diagnostic& d : dis) rep.diagnostics.push_back(std::move(d));
      }
      errors += rep.errors();
      warnings += rep.warnings();
      sink->report(rep);
    } catch (const std::exception& e) {
      err << "bsr lint: " << spec->name << ": " << e.what() << "\n";
      return 2;
    }
  }
  sink->close(errors, warnings);
  if (disagreements > 0) {
    err << "bsr lint: " << disagreements
        << " static/dynamic disagreement(s) — the two analyzers are each "
           "other's oracle, so this is an internal error, not a protocol "
           "finding\n";
    return 2;
  }
  return errors > 0 ? 1 : 0;
}

}  // namespace

std::optional<LintMode> parse_lint_mode(const std::string& name) {
  if (name.empty()) return LintMode::Dynamic;
  for (int m = 0; m <= static_cast<int>(LintMode::Steps); ++m) {
    if (name == to_string(static_cast<LintMode>(m))) {
      return static_cast<LintMode>(m);
    }
  }
  return std::nullopt;
}

int run_lint(const LintOptions& opts, std::ostream& out, std::ostream& err) {
  // Registry construction itself runs precomputation (BMZ plans, Algorithm
  // 6 path materialization) through the explorer, so even resolving a
  // protocol name can throw (e.g. a malformed BSR_EXPLORE_THREADS): treat
  // anything escaping the driver as an operational failure, not a lint
  // verdict.
  try {
    return run_lint_impl(opts, out, err);
  } catch (const std::exception& e) {
    err << "bsr lint: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace bsr::analysis
