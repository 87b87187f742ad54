// lint-registry: the four `bsr lint --json` sweeps CI runs (static, both,
// symbolic, steps) over the non-demo registry, through analysis::run_lint.
#include <array>
#include <map>
#include <sstream>

#include "analysis/claims.h"
#include "analysis/lint.h"
#include "serve/json.h"
#include "workloads.h"

namespace pb {

namespace ana = bsr::analysis;

namespace {

struct ModeSpec {
  ana::LintMode mode;
  const char* name;
  bool dynamic;  ///< Runs the dynamic tier, so executions are reported.
};

constexpr std::array<ModeSpec, 4> kSweep{{
    {ana::LintMode::Static, "static", false},
    {ana::LintMode::Both, "both", true},
    {ana::LintMode::Symbolic, "symbolic", false},
    {ana::LintMode::Steps, "steps", true},
}};

/// Executions the dynamic tier reports per spec (explored leaves, or seeded
/// sample runs for the serve-forever stacks). Pinned from the seed revision;
/// any drift is a behaviour change, not noise.
const std::map<std::string, long>& pinned_executions() {
  static const std::map<std::string, long> pinned{
      {"alg1", 21576},           {"alg1-packed", 5768},
      {"alg2", 21078},           {"packed-alg2", 5520},
      {"lemma82", 1174},         {"alg6-labelling", 252},
      {"fast-agreement", 3432},  {"alg4-agreement", 3432},
      {"alg3-full-info", 16300}, {"alg5-snapshot", 3432},
      {"baseline-unbounded", 20}, {"sec4-quantized", 20},
      {"sec6-stack", 3},         {"abd-stack", 3},
      {"ring-stack", 3},
  };
  return pinned;
}

struct Sweep {
  std::array<std::string, kSweep.size()> out;
  std::array<std::string, kSweep.size()> err;
  std::array<int, kSweep.size()> rc{};
  double seconds = 0;
};

/// One pass: the four sweeps in a seeded order.
Sweep run_sweep(Rng& rng, const std::vector<ana::ProtocolSpec>* registry) {
  std::vector<std::size_t> order{0, 1, 2, 3};
  shuffle(order, rng);
  Sweep s;
  const Clock::time_point t0 = Clock::now();
  for (const std::size_t i : order) {
    const ScopedSpan span(std::string("run_lint[") + kSweep[i].name + "]");
    ana::LintOptions lo;
    lo.json = true;
    lo.mode = kSweep[i].mode;
    lo.registry = registry;
    std::ostringstream out;
    std::ostringstream err;
    s.rc[i] = ana::run_lint(lo, out, err);
    s.out[i] = out.str();
    s.err[i] = err.str();
  }
  s.seconds = seconds_since(t0);
  return s;
}

/// Gates of one sweep. `first` holds the first pass's outputs: every later
/// pass must reproduce them byte for byte. Returns the total executions
/// the dynamic modes reported.
long check_sweep(const Sweep& s, std::array<std::string, kSweep.size()>& first,
                 RunResult& r) {
  long executions = 0;
  bool ok = true;
  const auto fail = [&](const std::string& why) {
    if (ok) r.fail(why);
    ok = false;
  };
  for (std::size_t i = 0; i < kSweep.size(); ++i) {
    const std::string mode = kSweep[i].name;
    if (s.rc[i] != 0) {
      fail("lint --mode=" + mode + " exited " + std::to_string(s.rc[i]) +
           ": " + s.err[i]);
      continue;
    }
    try {
      const bsr::serve::Json doc = bsr::serve::Json::parse(s.out[i]);
      if (doc.num_or("errors", -1) != 0) fail(mode + ": errors reported");
      const bsr::serve::Json* protos = doc.get("protocols");
      if (protos == nullptr || protos->array().size() != pinned_executions().size()) {
        fail(mode + ": expected every non-demo spec in the report");
        continue;
      }
      for (const bsr::serve::Json& p : protos->array()) {
        const std::string name = p.str_or("name", "");
        const long execs = p.num_or("executions", -1);
        if (!kSweep[i].dynamic) continue;
        executions += execs;
        const auto it = pinned_executions().find(name);
        if (it == pinned_executions().end() || it->second != execs) {
          fail(mode + ": " + name + " executions " + std::to_string(execs));
        }
      }
    } catch (const std::exception& e) {
      fail(mode + ": unparsable JSON: " + e.what());
    }
    if (first[i].empty()) {
      first[i] = s.out[i];
    } else if (first[i] != s.out[i]) {
      fail(mode + ": output differs from the first pass");
    }
  }
  return executions;
}

}  // namespace

void registry_setup() { (void)ana::builtin_protocols(); }

RunResult run_lint_registry(const Options& opts, TraceResult* trace) {
  RunResult r;
  // Set-up is the registry build, a process-wide singleton built on first
  // use. Fresh processes time it: 5 before the first pass and 2 after every
  // pass, so that the samples span the run and not one moment of the
  // machine's speed. This process builds it once, timed, before the passes.
  std::vector<double> setup;
  const auto time_setup = [&](int processes) {
    spawned_setup("registry", processes, 1, setup);
  };
  time_setup(5);
  {
    const Clock::time_point t0 = Clock::now();
    (void)ana::builtin_protocols();
    setup.push_back(seconds_since(t0));
  }

  Rng rng(opts.seed);
  std::array<std::string, kSweep.size()> first;
  std::vector<double> pass_s;
  long executions = -1;
  const auto record = [&](const Sweep& s) {
    const long e = check_sweep(s, first, r);
    if (executions < 0) executions = e;
    ++r.attempted;
  };

  if (trace == nullptr) {
    PassLoop loop(opts.seconds, 3);
    while (loop.more()) {
      const Sweep s = run_sweep(rng, nullptr);
      pass_s.push_back(s.seconds);
      record(s);
      time_setup(2);
      loop.done();
    }
  } else {
    // Untraced sweeps alternate with traced passes (the sweep over the
    // traced registry, then its decomposition); the two sweep times give
    // the tracing overhead.
    std::vector<double> plain;
    const std::vector<ana::ProtocolSpec> reg = traced_registry();
    std::vector<DecomposeItem> items;
    for (const ana::ProtocolSpec* s : sweep_specs(reg)) items.push_back({s});
    std::vector<Layers> passes;
    PassLoop loop(opts.seconds, 2);
    while (loop.more()) {
      const Sweep untraced = run_sweep(rng, nullptr);
      plain.push_back(untraced.seconds);
      record(untraced);
      Tracer t;
      set_current_tracer(&t);
      const Sweep s = run_sweep(rng, &reg);
      LayerCounts counts;
      decompose(items, counts);
      set_current_tracer(nullptr);
      pass_s.push_back(s.seconds);
      record(s);
      passes.push_back(compute_layers(t, counts));
      if (loop.passes() == 0) trace->spans = std::move(t);
      time_setup(2);
      loop.done();
    }
    std::vector<std::string> mismatches;
    trace->layers = merge_passes(passes, mismatches);
    for (const std::string& m : mismatches) r.fail("count differs between passes: " + m);
    trace->untraced_pass_s = median(plain);
    trace->traced_pass_s = median(pass_s);
  }

  r.metric("setup_s", median(setup), "s");
  r.detail.raw("setup_samples_s", json_numbers(setup));
  r.metric("op_s", median(pass_s), "s");
  r.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
  r.detail.raw("pass_samples_s", json_numbers(pass_s));
  r.counters.num("specs", static_cast<long>(pinned_executions().size()))
      .num("modes", static_cast<long>(kSweep.size()))
      .num("dynamic_executions_per_pass", executions);
  std::string bytes = "{";
  for (std::size_t i = 0; i < kSweep.size(); ++i) {
    bytes += (i > 0 ? "," : "") + json_string(kSweep[i].name) + ":" +
             std::to_string(first[i].size());
  }
  r.counters.raw("json_bytes", bytes + "}");
  return r;
}

}  // namespace pb
