// bsr_perfbench: runs one workload of the verifier benchmark and prints, as
// its last line, {"correct", "attempted", "failed", "metrics"}.
//
//   bsr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --bsr PATH --work-dir DIR [--commit REV]
//   bsr_perfbench --setup registry|alg2 --reps N   (a set-up sample process)
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/README.md). The full record (samples, exact work
// counters, build metadata, tracing overhead) goes to DIR.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using pb::Options;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "bsr_perfbench: " << why
            << "\nusage: bsr_perfbench --workload "
               "lint-registry|explore-bounded|explore-fullinfo|serve-mix "
               "--seed N --seconds S --trace 0|1 --bsr PATH --work-dir DIR "
               "[--commit REV]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument '" + a + "'");
    kv[a.substr(2)] = argv[++i];
  }
  try {
    for (const auto& [k, v] : kv) {
      if (k == "workload") {
        o.workload = v;
      } else if (k == "seed") {
        o.seed = std::stoull(v);
      } else if (k == "seconds") {
        o.seconds = std::stod(v);
      } else if (k == "trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (k == "bsr") {
        o.bsr = v;
      } else if (k == "work-dir") {
        o.work_dir = v;
      } else if (k == "commit") {
        o.commit = v;
      } else {
        usage("unknown option --" + k);
      }
    }
  } catch (const std::exception&) {
    usage("malformed number");
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

using Runner = pb::RunResult (*)(const Options&, pb::TraceResult*);

const std::map<std::string, Runner>& runners() {
  static const std::map<std::string, Runner> r{
      {"lint-registry", pb::run_lint_registry},
      {"explore-bounded", pb::run_explore_bounded},
      {"explore-fullinfo", pb::run_explore_fullinfo},
      {"serve-mix", pb::run_serve_mix},
  };
  return r;
}

const std::map<std::string, void (*)()>& setup_steps() {
  static const std::map<std::string, void (*)()> s{
      {"registry", pb::registry_setup},
      {"alg2", pb::alg2_setup},
  };
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 5 && std::string(argv[1]) == "--setup" &&
      std::string(argv[3]) == "--reps") {
    const auto step = setup_steps().find(argv[2]);
    if (step == setup_steps().end()) {
      usage(std::string("unknown set-up step '") + argv[2] + "'");
    }
    return pb::run_setup_child(step->second, std::atoi(argv[4]));
  }
  const Options opts = parse(argc, argv);
  const auto runner = runners().find(opts.workload);
  if (runner == runners().end()) usage("unknown workload '" + opts.workload + "'");
  // Every engine here is the serial one; an inherited thread count would
  // change what is measured.
  unsetenv("BSR_EXPLORE_THREADS");

  pb::RunResult r;
  pb::TraceResult trace;
  try {
    r = runner->second(opts, opts.trace ? &trace : nullptr);
  } catch (const std::exception& e) {
    std::cerr << "bsr_perfbench: " << opts.workload << ": " << e.what() << "\n";
    return 1;
  }

  // The reported metrics: end-to-end, or per-layer. A layer this workload
  // bypasses reads 0, its timings as well as its counts.
  std::map<std::string, pb::Metric> metrics;
  if (!opts.trace) {
    metrics = r.metrics;
  } else {
    for (const auto& [name, v] : trace.layers) {
      metrics[name] = pb::Metric{v.value, v.unit};
    }
  }

  const double overhead =
      opts.trace && trace.untraced_pass_s > 0
          ? (trace.traced_pass_s - trace.untraced_pass_s) / trace.untraced_pass_s
          : 0;
  pb::JsonObject meta;
  meta.str("workload", opts.workload)
      .num("seed", static_cast<long>(opts.seed))
      .num("seconds", opts.seconds)
      .boolean("trace", opts.trace)
      .str("commit", opts.commit)
      .str("compiler", PB_COMPILER)
      .str("build_type", PB_BUILD_TYPE)
      .str("cxx_flags", PB_CXX_FLAGS)
      .num("nproc", static_cast<long>(std::thread::hardware_concurrency()));
  if (opts.trace) {
    meta.num("untraced_pass_s", trace.untraced_pass_s)
        .num("traced_pass_s", trace.traced_pass_s)
        .num("tracing_overhead", overhead);
  }

  pb::JsonObject shown;
  for (const auto& [name, m] : metrics) {
    shown.raw(name, pb::JsonObject().num("value", m.value).str("unit", m.unit).render());
  }
  const bool correct = r.failed == 0 && r.attempted > 0;
  const std::string verdict = pb::JsonObject()
                                  .boolean("correct", correct)
                                  .num("attempted", r.attempted)
                                  .num("failed", r.failed)
                                  .raw("metrics", shown.render())
                                  .render();

  const std::string stem = opts.work_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + "-trace" +
                           (opts.trace ? "1" : "0");
  {
    std::ofstream rec(stem + ".json");
    rec << pb::JsonObject()
               .raw("meta", meta.render())
               .raw("verdict", verdict)
               .raw("counters", r.counters.render())
               .raw("detail", r.detail.render())
               .raw("failures", pb::json_strings(r.failures))
               .render()
        << "\n";
  }
  if (opts.trace) trace.spans.write(stem + ".spans.jsonl", opts.workload);

  std::cout << "meta " << meta.render() << "\n"
            << "counters " << r.counters.render() << "\n"
            << "detail " << r.detail.render() << "\n";
  for (const std::string& f : r.failures) std::cout << "FAILED " << f << "\n";
  std::cout << verdict << std::endl;
  return 0;
}
