// The four workloads. Each runs untraced (end-to-end metrics) or traced
// (per-layer metrics), checks every output against its gates, and fills a
// RunResult.
#pragma once

#include "common.h"
#include "layers.h"

namespace pb {

/// What a traced run adds: per-layer values and the tracing overhead.
struct TraceResult {
  Layers layers;
  Tracer spans;  ///< The first traced pass, written out at the end.
  double untraced_pass_s = 0;
  double traced_pass_s = 0;
};

RunResult run_lint_registry(const Options& opts, TraceResult* trace);
RunResult run_explore_bounded(const Options& opts, TraceResult* trace);
RunResult run_explore_fullinfo(const Options& opts, TraceResult* trace);
RunResult run_serve_mix(const Options& opts, TraceResult* trace);

/// Set-up steps timed in fresh processes (spawned_setup): the registry
/// build of lint-registry and Algorithm 2's precomputation of
/// explore-bounded.
void registry_setup();
void alg2_setup();

}  // namespace pb
