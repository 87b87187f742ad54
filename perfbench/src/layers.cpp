#include "layers.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "analysis/analyzer.h"
#include "analysis/static/checker.h"
#include "analysis/static/fingerprint.h"
#include "analysis/static/ir.h"
#include "sim/tt.h"

namespace pb {

namespace ana = bsr::analysis;
using bsr::sim::Choice;
using bsr::sim::Sim;

void ExploreCounts::add(const ExploreCounts& o) {
  nodes += o.nodes;
  leaves += o.leaves;
  backtracks += o.backtracks;
  rewound += o.rewound;
  replayed += o.replayed;
}

std::string ExploreCounts::json() const {
  return JsonObject()
      .num("nodes", nodes)
      .num("leaves", leaves)
      .num("backtracks", backtracks)
      .num("rewound_actions", rewound)
      .num("replayed_results", replayed)
      .render();
}

void ScheduleDeriver::leaf(const std::vector<Choice>& s) {
  const auto n = static_cast<std::size_t>(n_);
  if (steps_.empty()) steps_.assign(n, 0);
  std::size_t lcp = 0;
  while (lcp < prev_.size() && lcp < s.size() && prev_[lcp] == s[lcp]) ++lcp;
  if (counts_.leaves > 0) {
    ++counts_.backtracks;
    counts_.rewound += static_cast<long>(prev_.size() - lcp);
    std::vector<bool> stepped(n, false);
    for (std::size_t i = lcp; i < prev_.size(); ++i) {
      if (prev_[i].kind == Choice::Kind::Step) {
        stepped[static_cast<std::size_t>(prev_[i].pid)] = true;
      }
    }
    for (std::size_t p = 0; p < n; ++p) {
      if (stepped[p]) counts_.replayed += steps_[lcp * n + p];
    }
  }
  counts_.nodes += static_cast<long>(s.size() - lcp);
  ++counts_.leaves;
  steps_.resize((s.size() + 1) * n);
  for (std::size_t d = lcp; d < s.size(); ++d) {
    std::copy_n(steps_.begin() + static_cast<long>(d * n), n,
                steps_.begin() + static_cast<long>((d + 1) * n));
    if (s[d].kind == Choice::Kind::Step) {
      steps_[(d + 1) * n + static_cast<std::size_t>(s[d].pid)] += 1;
    }
  }
  prev_.resize(lcp);
  prev_.insert(prev_.end(), s.begin() + static_cast<long>(lcp), s.end());
}

void VisitorClock::flush(const char* name) {
  if (Tracer* t = current_tracer()) t->aggregate(name, ns_, calls_);
  ns_ = 0;
  calls_ = 0;
}

std::vector<ana::ProtocolSpec> traced_registry() {
  std::vector<ana::ProtocolSpec> reg = ana::builtin_protocols();
  for (ana::ProtocolSpec& s : reg) {
    if (s.describe) {
      s.describe = [f = s.describe] {
        const ScopedSpan span("spec.describe");
        return f();
      };
    }
    if (s.factory) {
      s.factory = [f = s.factory] {
        const ScopedSpan span("spec.factory");
        return f();
      };
    }
    if (s.sample_runner) {
      s.sample_runner = [f = s.sample_runner](Sim& sim, std::uint64_t seed) {
        const ScopedSpan span("spec.sample_runner");
        f(sim, seed);
      };
    }
  }
  return reg;
}

std::vector<const ana::ProtocolSpec*> sweep_specs(
    const std::vector<ana::ProtocolSpec>& reg) {
  std::vector<const ana::ProtocolSpec*> out;
  for (const ana::ProtocolSpec& s : reg) {
    if (!s.demo) out.push_back(&s);
  }
  return out;
}

void derived_explore(const char* span, const bsr::sim::Explorer::Factory& make,
                     bsr::sim::ExploreOptions opts, ExploreCounts& out) {
  const ScopedSpan s(span);
  opts.threads = 1;
  std::optional<ScheduleDeriver> derive;
  VisitorClock clock;
  bsr::sim::Explorer(opts).explore(
      make, [&](Sim& sim, const std::vector<Choice>& schedule) {
        clock.start();
        if (!derive) derive.emplace(sim.n());
        derive->leaf(schedule);
        clock.stop();
      });
  clock.flush();
  if (derive) out.add(derive->counts());
}

namespace {

/// The spec run without the analyzer: a plain exploration, or for sampled
/// specs their seeded sample runs.
void plain_run(const ana::ProtocolSpec& spec, ExploreCounts& out) {
  if (!spec.sample_runner) {
    derived_explore("explore.plain", spec.factory, spec.explore, out);
    return;
  }
  const ScopedSpan span("sample.plain");
  for (int seed = 1; seed <= spec.sample_seeds; ++seed) {
    std::unique_ptr<Sim> sim = spec.factory();
    spec.sample_runner(*sim, static_cast<std::uint64_t>(seed));
  }
}

long grid_fallbacks(const std::map<int, std::string>& statuses) {
  long n = 0;
  for (const auto& [key, status] : statuses) {
    if (status.rfind("n <=", 0) == 0) ++n;
  }
  return n;
}

}  // namespace

void decompose(const std::vector<DecomposeItem>& items, LayerCounts& counts) {
  std::vector<ana::ProtocolReport> reports;
  for (const DecomposeItem& item : items) {
    const ana::ProtocolSpec& spec = *item.spec;
    if (item.static_tier && spec.describe) {
      {
        const ScopedSpan span("analyze_static");
        reports.push_back(ana::analyze_static(spec));
      }
      {
        const ScopedSpan span("verify_claims");
        counts.grid_fallbacks +=
            grid_fallbacks(ana::verify_claims(spec).per_register);
      }
      const bsr::analysis::ir::ProtocolIR ir = spec.describe();
      counts.obligations += static_cast<long>(
          ana::width_obligations(spec, ir, bsr::analysis::ir::summarize(ir))
              .size() +
          ana::step_obligations(spec, ir).size());
      {
        const ScopedSpan span("verify_step_claims");
        counts.grid_fallbacks +=
            grid_fallbacks(ana::verify_step_claims(spec, ir).per_process);
      }
      {
        const ScopedSpan span("ir.fingerprint");
        volatile std::uint64_t fp = bsr::analysis::ir::fingerprint(ir);
        (void)fp;
      }
    }
    if (item.dynamic_tier) {
      {
        const ScopedSpan span("analyze_protocol");
        reports.push_back(ana::analyze_protocol(spec));
      }
      plain_run(spec, counts.explore);
    }
  }
  const ScopedSpan span("JsonSink");
  std::ostringstream os;
  ana::JsonSink sink(os);
  int errors = 0;
  int warnings = 0;
  for (const ana::ProtocolReport& r : reports) {
    errors += r.errors();
    warnings += r.warnings();
    sink.report(r);
  }
  sink.close(errors, warnings);
  counts.render_bytes += static_cast<long>(os.tellp());
}

namespace {

/// Spans of the workload proper (the sweep, the socket-facing request
/// handler, the benchmark's own explore call), as opposed to the
/// decomposition, which re-runs the same tiers piece by piece.
const char* const kWorkloadRoots[] = {"run_lint", "Service::handle_line",
                                      "Explorer::explore"};

Tracer::Totals under_roots(const Tracer& t, const std::string& name) {
  Tracer::Totals sum;
  for (const char* root : kWorkloadRoots) {
    const Tracer::Totals x = t.totals(name, root);
    sum.busy_s += x.busy_s;
    sum.self_s += x.self_s;
    sum.calls += x.calls;
  }
  return sum;
}

Tracer::Totals plus(Tracer::Totals a, const Tracer::Totals& b) {
  a.busy_s += b.busy_s;
  a.self_s += b.self_s;
  a.calls += b.calls;
  return a;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

Layers compute_layers(const Tracer& t, const LayerCounts& c) {
  Layers L;
  const auto count = [&](const std::string& name, double v,
                         const char* unit = "count") {
    L[name] = LayerValue{v, unit, true};
  };
  const auto timed = [&](const std::string& name, double v, const char* unit) {
    L[name] = LayerValue{v, unit, false};
  };

  // bsr_sim: search work and the explorer's own cost per node.
  const ExploreCounts& e = c.explore;
  count("explore.nodes", static_cast<double>(e.nodes));
  count("explore.leaves", static_cast<double>(e.leaves));
  count("explore.backtracks", static_cast<double>(e.backtracks));
  count("explore.rewound_actions", static_cast<double>(e.rewound));
  count("sim.replayed_results", static_cast<double>(e.replayed));
  count("sim.replayed_per_backtrack",
        ratio(static_cast<double>(e.replayed), static_cast<double>(e.backtracks)),
        "ratio");
  const Tracer::Totals ex =
      plus(plus(t.totals("Explorer::explore"), t.totals("explore.plain")),
           t.totals("explore.alg1"));
  timed("explore.ns_per_node",
        ratio(ex.self_s * 1e9, static_cast<double>(e.nodes)), "ns");

  // Transposition table (Zobrist hashing, probes, POR footprints).
  count("tt.probes", static_cast<double>(c.tt.probes));
  count("tt.hits", static_cast<double>(c.tt.hits));
  count("tt.stores", static_cast<double>(c.tt.stores));
  count("tt.drops", static_cast<double>(c.tt.drops));
  count("tt.hit_ratio",
        ratio(static_cast<double>(c.tt.hits), static_cast<double>(c.tt.probes)),
        "ratio");
  count("explore.nodes_per_final",
        ratio(static_cast<double>(e.nodes), static_cast<double>(e.leaves)),
        "ratio");

  // Factories and sampled runs, as the workload proper calls them.
  const Tracer::Totals fac = under_roots(t, "spec.factory");
  count("sim.factory_calls", static_cast<double>(fac.calls));
  timed("sim.factory_us", fac.busy_s * 1e6, "us");
  const Tracer::Totals smp = under_roots(t, "spec.sample_runner");
  timed("analysis.sample_run_s", smp.busy_s, "s");

  // bsr_proto reflection and the bsr_ir static tier.
  const Tracer::Totals ref = under_roots(t, "spec.describe");
  count("proto.reflect_calls", static_cast<double>(ref.calls));
  timed("proto.reflect_us", ref.busy_s * 1e6, "us");
  const Tracer::Totals chk = t.totals("analyze_static");
  timed("ir.check_us", chk.self_s * 1e6, "us");
  const Tracer::Totals ver =
      plus(t.totals("verify_claims"), t.totals("verify_step_claims"));
  timed("ir.verify_us", ver.self_s * 1e6, "us");
  count("ir.obligations", static_cast<double>(c.obligations));
  count("ir.grid_fallbacks", static_cast<double>(c.grid_fallbacks));
  const Tracer::Totals fp = t.totals("ir.fingerprint");
  timed("ir.fingerprint_us", fp.busy_s * 1e6, "us");

  // bsr_analysis: the dynamic tier against a plain run of the same spec.
  const Tracer::Totals dyn = t.totals("analyze_protocol");
  const Tracer::Totals plain =
      plus(t.totals("explore.plain"), t.totals("sample.plain"));
  timed("analysis.dynamic_s", dyn.busy_s, "s");
  timed("analysis.explore_s", plain.busy_s, "s");
  timed("analysis.harvest_share", ratio(dyn.busy_s - plain.busy_s, dyn.busy_s),
        "ratio");
  const Tracer::Totals js = t.totals("JsonSink");
  timed("analysis.render_us", js.busy_s * 1e6, "us");
  count("analysis.render_bytes", static_cast<double>(c.render_bytes), "bytes");

  // bsr_serve.
  const Tracer::Totals parse = t.totals("Json::parse");
  timed("serve.parse_us", ratio(parse.busy_s * 1e6, static_cast<double>(parse.calls)),
        "us");
  const Tracer::Totals hit = t.totals("Service::handle_line[hit]");
  timed("serve.handle_hit_us",
        ratio(hit.busy_s * 1e6, static_cast<double>(hit.calls)), "us");
  const Tracer::Totals miss = t.totals("Service::handle_line[miss]");
  timed("serve.handle_miss_ms",
        ratio(miss.busy_s * 1e3, static_cast<double>(miss.calls)), "ms");
  timed("serve.transport_us", c.serve_transport_us, "us");
  count("serve.hit_ratio",
        ratio(static_cast<double>(c.serve_hits),
              static_cast<double>(c.serve_requests)),
        "ratio");
  count("serve.evictions", static_cast<double>(c.serve_evictions));
  for (const char* mode : {"lint", "explore", "doc"}) {
    const auto it = c.serve_mode_us.find(mode);
    timed(std::string("serve.mode_us.") + mode,
          it == c.serve_mode_us.end() ? 0 : it->second, "us");
  }
  count("serve.response_bytes", c.serve_response_bytes, "bytes");
  return L;
}

Layers merge_passes(const std::vector<Layers>& passes,
                    std::vector<std::string>& mismatches) {
  Layers out;
  if (passes.empty()) return out;
  for (const auto& [name, first] : passes.front()) {
    LayerValue v = first;
    if (first.exact) {
      for (const Layers& p : passes) {
        if (p.at(name).value != first.value) {
          mismatches.push_back(name);
          break;
        }
      }
    } else {
      std::vector<double> xs;
      for (const Layers& p : passes) xs.push_back(p.at(name).value);
      v.value = median(xs);
    }
    out[name] = v;
  }
  return out;
}

}  // namespace pb
