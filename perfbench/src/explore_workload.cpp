// explore-bounded: the paper's bounded-register instantiations, enumerated
// schedule by schedule by the serial explorer with no table and no POR.
// explore-fullinfo: the full-information IC protocol (Algorithm 3) with a
// transposition table and sleep-set POR.
#include <memory>
#include <set>

#include "core/alg1.h"
#include "core/alg2.h"
#include "core/sec7.h"
#include "sim/explore.h"
#include "sim/tt.h"
#include "tasks/approx.h"
#include "tasks/checker.h"
#include "tasks/explicit_task.h"
#include "topo/bmz.h"
#include "workloads.h"

namespace pb {

using bsr::Value;
using bsr::sim::Choice;
using bsr::sim::Sim;

namespace {

// ----------------------------------------------------------- bounded --

/// ApproxAgreement(2, 3) materialized, and the BMZ plan Algorithm 2 runs.
struct Alg2Setup {
  bsr::tasks::ExplicitTask task;
  bsr::topo::Bmz2Plan plan;
};

std::unique_ptr<Alg2Setup> build_alg2_setup() {
  const bsr::tasks::ApproxAgreement aa(2, 3);
  std::vector<Value> domain;
  for (std::uint64_t v = 0; v <= 3; ++v) domain.emplace_back(v);
  bsr::tasks::ExplicitTask task = bsr::tasks::materialize(aa, domain);
  bsr::topo::Bmz2Plan plan = bsr::topo::Bmz2(task).plan();
  return std::make_unique<Alg2Setup>(Alg2Setup{std::move(task), std::move(plan)});
}

struct Instance {
  const char* name;
  long expected;  ///< Exact schedule count.
  bsr::sim::ExploreOptions opts;
  bsr::sim::Explorer::Factory make;
};

/// Decision numerator of `pid`, or -1 when it did not decide.
long decided(const Sim& sim, int pid) {
  if (!sim.terminated(pid)) return -1;
  const Value& v = sim.decision(pid);
  return v.is_u64() ? static_cast<long>(v.as_u64()) : -2;
}

/// What one enumeration saw, kept small so the visitor stays cheap; legality
/// of the distinct outcomes is checked after the timed pass.
struct Outcomes {
  long leaves = 0;
  long max_gap = 0;
  std::set<std::pair<long, long>> profiles;
};

std::vector<Instance> bounded_instances(const Alg2Setup& a2) {
  std::vector<Instance> out;
  for (const std::uint64_t k : {4ull, 5ull}) {
    Instance in{k == 4 ? "alg1 k=4" : "alg1 k=5", k == 4 ? 73738 : 295178,
                {}, nullptr};
    in.opts.max_steps = 1000;
    in.make = [k] {
      auto sim = std::make_unique<Sim>(2);
      bsr::core::install_alg1(*sim, k, {0, 1});
      return sim;
    };
    out.push_back(std::move(in));
  }
  Instance in{"alg2 AA(2,3) crashes<=1", 542382, {}, nullptr};
  in.opts.max_steps = 500;
  in.opts.max_crashes = 1;
  in.make = [&a2] {
    auto sim = std::make_unique<Sim>(2);
    bsr::core::install_alg2(*sim, a2.plan, {Value(0), Value(1)});
    return sim;
  };
  out.push_back(std::move(in));
  for (Instance& i : out) i.opts.threads = 1;
  return out;
}

/// One enumeration; with a tracer, under an Explorer::explore span whose
/// visitor also derives the search's work counts.
Outcomes enumerate(const Instance& in, ExploreCounts* derived) {
  Outcomes o;
  const bool traced = current_tracer() != nullptr;
  const bsr::sim::Explorer::Factory make =
      traced ? bsr::sim::Explorer::Factory([&in] {
        const ScopedSpan span("spec.factory");
        return in.make();
      })
             : in.make;
  ScheduleDeriver derive(2);
  VisitorClock clock;
  const ScopedSpan span("Explorer::explore");
  o.leaves = bsr::sim::Explorer(in.opts).explore(
      make, [&](Sim& sim, const std::vector<Choice>& schedule) {
        if (traced) clock.start();
        const long y0 = decided(sim, 0);
        const long y1 = decided(sim, 1);
        o.profiles.emplace(y0, y1);
        if (y0 >= 0 && y1 >= 0) o.max_gap = std::max(o.max_gap, std::abs(y0 - y1));
        if (traced) {
          derive.leaf(schedule);
          clock.stop();
        }
      });
  if (traced) {
    clock.flush();
    derived->add(derive.counts());
  }
  return o;
}

/// Figure 2: the 9 outcome profiles of alg1 at k = 4, inputs (0, 1).
const std::set<std::pair<long, long>> kFigure2Profiles{
    {0, 1}, {2, 1}, {2, 3}, {4, 3}, {4, 5}, {6, 5}, {6, 7}, {8, 7}, {8, 9}};

bool check_instance(const Instance& in, const Outcomes& o, const Alg2Setup& a2,
                    std::string& why) {
  if (o.leaves != in.expected) {
    why = std::string(in.name) + ": " + std::to_string(o.leaves) +
          " schedules, expected " + std::to_string(in.expected);
    return false;
  }
  if (in.opts.max_crashes == 0) {
    if (o.max_gap > 1) {
      why = std::string(in.name) + ": |y1-y2| reached " + std::to_string(o.max_gap);
      return false;
    }
    if (in.expected == 73738 && o.profiles != kFigure2Profiles) {
      why = "alg1 k=4: outcome profiles differ from Figure 2";
      return false;
    }
    return true;
  }
  const bsr::tasks::Config input{Value(0), Value(1)};
  for (const auto& [y0, y1] : o.profiles) {
    if (y0 == -2 || y1 == -2) {
      why = std::string(in.name) + ": non-integer decision";
      return false;
    }
    bsr::tasks::Config out(2);
    if (y0 >= 0) out[0] = Value(static_cast<std::uint64_t>(y0));
    if (y1 >= 0) out[1] = Value(static_cast<std::uint64_t>(y1));
    if (!bsr::tasks::check_outputs(a2.task, input, out).ok) {
      why = std::string(in.name) + ": illegal outputs (" +
            std::to_string(y0) + ", " + std::to_string(y1) + ")";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------- fullinfo --

constexpr std::size_t kTableBytes = std::size_t{1} << 25;  // 32 MiB
constexpr long kFullInfoFinals = 86194;

struct FullInfoPass {
  long finals = 0;
  bool all_done = true;  ///< Every non-crashed process decided.
  bsr::sim::TranspositionTable::Stats tt;
  double seconds = 0;
};

FullInfoPass fullinfo_pass(std::shared_ptr<bsr::sim::TranspositionTable> tt) {
  bsr::sim::ExploreOptions eo;
  eo.max_steps = 1000;
  eo.max_crashes = 1;
  eo.threads = 1;
  eo.tt = tt;
  eo.por = true;
  const bool traced = current_tracer() != nullptr;
  FullInfoPass p;
  VisitorClock clock;
  const Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan span("Explorer::explore");
    p.finals = bsr::sim::Explorer(eo).explore(
        [] {
          const ScopedSpan span("spec.factory");
          auto sim = std::make_unique<Sim>(3);
          bsr::core::install_full_info_ic(*sim, 3, {Value(0), Value(1), Value(2)});
          return sim;
        },
        [&](Sim& sim, const std::vector<Choice>&) {
          if (traced) clock.start();
          for (int pid = 0; pid < sim.n(); ++pid) {
            if (!sim.crashed(pid) && !sim.terminated(pid)) p.all_done = false;
          }
          if (traced) clock.stop();
        });
    clock.flush();
  }
  p.seconds = seconds_since(t0);
  p.tt = tt->stats();
  return p;
}

std::string tt_json(const bsr::sim::TranspositionTable::Stats& s) {
  return JsonObject()
      .num("probes", s.probes)
      .num("hits", s.hits)
      .num("stores", s.stores)
      .num("drops", s.drops)
      .num("slots", s.slots)
      .render();
}

}  // namespace

void alg2_setup() { (void)build_alg2_setup(); }

RunResult run_explore_bounded(const Options& opts, TraceResult* trace) {
  RunResult r;
  // Set-up is Algorithm 2's precomputation: materialize the task and build
  // its BMZ plan. It is timed once here and three times in each of several
  // fresh processes: 5 before the first pass and 3 after every pass, so
  // that the samples span several processes and the whole run.
  std::vector<double> setup;
  const auto time_setup = [&](int processes) {
    spawned_setup("alg2", processes, 3, setup);
  };
  time_setup(5);
  const Clock::time_point t0 = Clock::now();
  const std::unique_ptr<Alg2Setup> a2 = build_alg2_setup();
  setup.push_back(seconds_since(t0));

  const std::vector<Instance> instances = bounded_instances(*a2);
  Rng rng(opts.seed);
  std::vector<double> pass_s;
  std::vector<double> plain_s;
  std::vector<Layers> passes;
  const auto one_pass = [&](bool traced) {
    std::vector<std::size_t> order{0, 1, 2};
    shuffle(order, rng);
    Tracer t;
    if (traced) set_current_tracer(&t);
    LayerCounts counts;
    std::vector<Outcomes> outcomes(instances.size());
    const Clock::time_point t0 = Clock::now();
    for (const std::size_t i : order) {
      outcomes[i] = enumerate(instances[i], &counts.explore);
    }
    const double s = seconds_since(t0);
    set_current_tracer(nullptr);
    if (++r.attempted == 1) {
      JsonObject leaves;
      JsonObject profiles;
      for (std::size_t i = 0; i < instances.size(); ++i) {
        leaves.num(instances[i].name, outcomes[i].leaves);
        profiles.num(instances[i].name, static_cast<long>(outcomes[i].profiles.size()));
      }
      r.counters.raw("leaves", leaves.render()).raw("outcome_profiles", profiles.render());
    }
    for (std::size_t i = 0; i < instances.size(); ++i) {
      std::string why;
      if (!check_instance(instances[i], outcomes[i], *a2, why)) {
        r.fail(why);
        break;
      }
    }
    (traced ? pass_s : plain_s).push_back(s);
    time_setup(3);
    if (traced) {
      passes.push_back(compute_layers(t, counts));
      if (passes.size() == 1) {
        trace->spans = std::move(t);
        r.counters.raw("derived", counts.explore.json());
      }
    }
  };

  if (trace == nullptr) {
    PassLoop loop(opts.seconds, 3);
    while (loop.more()) {
      one_pass(false);
      loop.done();
    }
    pass_s = plain_s;
  } else {
    // Untraced passes alternate with traced ones for the overhead.
    PassLoop loop(opts.seconds, 2);
    while (loop.more()) {
      one_pass(false);
      one_pass(true);
      loop.done();
    }
    std::vector<std::string> mismatches;
    trace->layers = merge_passes(passes, mismatches);
    for (const std::string& m : mismatches) r.fail("count differs between passes: " + m);
    trace->untraced_pass_s = median(plain_s);
    trace->traced_pass_s = median(pass_s);
  }

  r.metric("setup_s", median(setup), "s");
  r.detail.raw("setup_samples_s", json_numbers(setup));
  r.metric("op_s", median(pass_s), "s");
  r.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
  r.detail.raw("pass_samples_s", json_numbers(pass_s));
  return r;
}

RunResult run_explore_fullinfo(const Options& opts, TraceResult* trace) {
  RunResult r;
  std::vector<double> setup;
  std::vector<double> pass_s;
  std::vector<double> plain_s;
  std::vector<Layers> passes;
  std::string first_tt;
  long first_finals = 0;
  // Set-up is the table allocation; every pass needs a fresh table (a
  // reused one would memoize the previous pass), so each pass adds one
  // set-up sample to the ones taken up front.
  for (int i = 0; i < 9; ++i) {
    const Clock::time_point t0 = Clock::now();
    const bsr::sim::TranspositionTable tt(kTableBytes);
    setup.push_back(seconds_since(t0));
  }
  const auto one_pass = [&](bool traced) {
    const Clock::time_point t0 = Clock::now();
    auto tt = std::make_shared<bsr::sim::TranspositionTable>(kTableBytes);
    setup.push_back(seconds_since(t0));
    Tracer t;
    if (traced) set_current_tracer(&t);
    const FullInfoPass p = fullinfo_pass(tt);
    set_current_tracer(nullptr);
    ++r.attempted;
    const std::string stats = tt_json(p.tt);
    if (first_tt.empty()) {
      first_tt = stats;
      first_finals = p.finals;
    }
    if (p.finals != kFullInfoFinals) {
      r.fail("fullinfo: " + std::to_string(p.finals) +
             " distinct finals, expected " + std::to_string(kFullInfoFinals));
    } else if (p.tt.drops != 0) {
      r.fail("fullinfo: " + std::to_string(p.tt.drops) + " table drops");
    } else if (!p.all_done) {
      r.fail("fullinfo: a live process ended undecided");
    } else if (stats != first_tt) {
      r.fail("fullinfo: table stats differ from the first pass");
    }
    (traced ? pass_s : plain_s).push_back(p.seconds);
    if (traced) {
      LayerCounts counts;
      counts.tt = p.tt;
      // Every applied choice probes the table once, plus the root.
      counts.explore.nodes = p.tt.probes - 1;
      counts.explore.leaves = p.finals;
      passes.push_back(compute_layers(t, counts));
      if (passes.size() == 1) trace->spans = std::move(t);
    }
  };

  if (trace == nullptr) {
    PassLoop loop(opts.seconds, 3);
    while (loop.more()) {
      one_pass(false);
      loop.done();
    }
    pass_s = plain_s;
  } else {
    // Untraced passes alternate with traced ones for the overhead.
    PassLoop loop(opts.seconds, 2);
    while (loop.more()) {
      one_pass(false);
      one_pass(true);
      loop.done();
    }
    std::vector<std::string> mismatches;
    trace->layers = merge_passes(passes, mismatches);
    for (const std::string& m : mismatches) r.fail("count differs between passes: " + m);
    trace->untraced_pass_s = median(plain_s);
    trace->traced_pass_s = median(pass_s);
  }

  r.metric("setup_s", median(setup), "s");
  r.metric("op_s", median(pass_s), "s");
  r.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
  r.detail.raw("setup_samples_s", json_numbers(setup));
  r.detail.raw("pass_samples_s", json_numbers(pass_s));
  r.counters.num("finals", first_finals).raw("tt", first_tt);
  r.counters.num("table_bytes", static_cast<long>(kTableBytes));
  return r;
}

}  // namespace pb
