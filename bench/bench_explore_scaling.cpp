// Explorer scaling bench: executions/second of the exhaustive explorer on
// the Algorithm 2 (n=2, one-crash) workload — the hot path of the entire
// verification suite.
//
// Three kinds of row are compared on the identical choice tree:
//   * replay      — the rebuild-and-replay DFS (ReplayExplorer, the tests'
//                   oracle), the pre-optimization baseline;
//   * incremental — Explorer with threads=1, its serial
//                   incremental-backtracking path;
//   * parallel/T  — Explorer with T = 2, 4, 8 threads: the choice tree cut
//                   into frontier jobs that a pool takes in canonical order.
// Every row must report the same execution count; any mismatch makes the
// binary exit non-zero. Speedups are reported relative to the replay
// baseline. On machines with few cores the parallel rows degenerate to the
// incremental row's throughput (minus pool overhead); the algorithmic win
// of incremental backtracking is visible regardless of core count.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <memory>

#include "common.h"
#include "core/alg2.h"
#include "sim/explore.h"
#include "support/replay_explorer.h"
#include "tasks/approx.h"

namespace {

using namespace bsr;

struct Workload {
  topo::Bmz2Plan plan;
  tasks::Config input;
  sim::ExploreOptions opts;
};

Workload make_workload() {
  const tasks::ApproxAgreement aa(2, 3);
  std::vector<Value> domain;
  for (std::uint64_t v = 0; v <= 3; ++v) domain.emplace_back(v);
  const tasks::ExplicitTask task = tasks::materialize(aa, domain);
  const topo::Bmz2 bmz(task);
  Workload w{bmz.plan(), tasks::Config{Value(0), Value(1)}, {}};
  w.opts.max_steps = 500;
  w.opts.max_crashes = 1;  // the Alg2 n=2 one-crash workload
  return w;
}

sim::Explorer::Factory factory_of(const Workload& w) {
  return [&w]() {
    auto sim = std::make_unique<sim::Sim>(2);
    core::install_alg2(*sim, w.plan, w.input);
    return sim;
  };
}

struct Measurement {
  long executions = 0;
  double seconds = 0;
};

template <class Fn>
Measurement timed(const Fn& run) {
  const auto t0 = std::chrono::steady_clock::now();
  Measurement m;
  m.executions = run();
  m.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  return m;
}

int print_scaling_table() {
  bench::banner(
      "Explorer scaling — Alg2 (n=2, one crash), executions/sec vs engine",
      "incremental backtracking removes the O(depth) replay per branch; the "
      "frontier-partitioned pool adds thread scaling on top");

  const Workload w = make_workload();
  const auto make = factory_of(w);
  const auto count_only = [](sim::Sim&, const std::vector<sim::Choice>&) {};

  std::vector<std::pair<std::string, Measurement>> rows;
  rows.emplace_back("replay (baseline)", timed([&] {
                      return sim::ReplayExplorer(w.opts).explore(make,
                                                                count_only);
                    }));
  {
    sim::ExploreOptions o = w.opts;
    o.threads = 1;
    rows.emplace_back("incremental x1", timed([&] {
                        return sim::Explorer(o).explore(make, count_only);
                      }));
  }
  for (int threads : {2, 4, 8}) {
    sim::ExploreOptions o = w.opts;
    o.threads = threads;
    rows.emplace_back("parallel x" + std::to_string(threads), timed([&] {
                        return sim::Explorer(o).explore(make, count_only);
                      }));
  }

  const Measurement& base = rows.front().second;
  bench::Table table(
      {"engine", "executions", "seconds", "execs/sec", "speedup vs replay"});
  bool counts_match = true;
  for (const auto& [name, m] : rows) {
    counts_match &= m.executions == base.executions;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", m.seconds);
    const std::string secs = buf;
    std::snprintf(buf, sizeof buf, "%.0f",
                  static_cast<double>(m.executions) / m.seconds);
    const std::string rate = buf;
    std::snprintf(buf, sizeof buf, "%.2fx", base.seconds / m.seconds);
    table.row({name, bench::str(m.executions), secs, rate, buf});
  }
  table.print();
  std::cout << "  counts identical across engines: "
            << (counts_match ? "yes" : "NO — BUG") << "\n";
  return counts_match ? 0 : 1;
}

void BM_ExploreAlg2(benchmark::State& state) {
  const Workload w = make_workload();
  const auto make = factory_of(w);
  const int threads = static_cast<int>(state.range(0));
  long execs = 0;
  for (auto _ : state) {
    if (threads == 0) {
      execs = sim::ReplayExplorer(w.opts).explore(
          make, [](sim::Sim&, const std::vector<sim::Choice>&) {});
    } else {
      sim::ExploreOptions o = w.opts;
      o.threads = threads;
      execs = sim::Explorer(o).explore(
          make, [](sim::Sim&, const std::vector<sim::Choice>&) {});
    }
  }
  state.counters["executions"] = static_cast<double>(execs);
}
// 0 = replay baseline; N>0 = Explorer with N threads.
BENCHMARK(BM_ExploreAlg2)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int rc = print_scaling_table();
  if (rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
