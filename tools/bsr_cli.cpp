// bsr — command-line driver for the bounded-size-registers library.
//
// Subcommands:
//   bsr agree   --k K [--x0 0 --x1 1] [--seed S] [--crashes C] [--packed]
//       Run Algorithm 1 (1-bit registers; --packed: one 3-bit register per
//       process) and print decisions and step counts.
//   bsr fast    --rounds R [--x0 0 --x1 1]
//       Run the Theorem 8.1 fast ε-agreement (6-bit registers).
//   bsr stack   --n N --t T [--rounds R] [--seed S] [--crashes C]
//       Run the Theorem 1.3 register stack (3(t+1)-bit registers).
//   bsr adversary [--k K]
//       Run the §4 pigeonhole adversary against Algorithm 1's early group.
//   bsr iis     --rounds R [--x0 0 --x1 1] [--seed S]
//       Run the Lemma 8.2 IIS labelling agreement (ε = 3^-R).
//   bsr trace   --k K --schedule "p0 p1 p0 ..."
//       Replay a schedule of Algorithm 1 and dump the formatted trace.
//   bsr explore --k K [--crashes C] [--threads T] [--max-steps S]
//               [--tt] [--tt-bytes N] [--por] [--json]
//       Exhaustively enumerate Algorithm 1's executions and print the count
//       and decision spread. --threads 0 (the default) honors
//       BSR_EXPLORE_THREADS; "auto" uses every hardware thread.
//       Every search memoizes each state's schedule count in a
//       transposition table (sim/tt.h) of --tt-bytes (default 4 MiB), so
//       the count is exact while each state is expanded once. --tt
//       reports the number of distinct final configurations (the visits)
//       in place of the count, and the table's probe/hit/store/drop
//       counters ("collisions" are drops — full probe windows that fall
//       back to exploring); --tt-bytes implies --tt. --por turns on
//       sleep-set partial-order reduction (default off): choices provably
//       independent of every sibling already explored — per the static
//       interference relation, see `bsr lint --mode=interference` — are
//       skipped, and the count is the reduced search's. The
//       distinct-final-state set, decision spread, and violation findings
//       are provably unchanged (the explorer suites check the table and
//       the reduction against a replay oracle). With --por the table
//       deduplicates complete states only, so its counters count the
//       reduced search's leaves. --json emits one JSON object instead of
//       text. An unknown flag is a usage error (exit 1) naming it.
//   bsr lint [--protocol NAME[,NAME...]]
//            [--mode dynamic|static|symbolic|both|interference|steps]
//            [--static] [--max-pairs N] [--json] [--list] [--help]
//       Run the model-conformance analyzer (docs/ANALYSIS.md) over the
//       built-in protocols: register-width claims, SWMR/write-once/⊥
//       discipline, dead registers. --mode static audits each protocol's IR
//       abstractly (zero simulator steps); --mode symbolic additionally
//       runs the width prover, deciding each claim for *all* parameter
//       valuations (all params / n <= cutoff / refuted with a witness
//       ParamEnv, the latter an error); --mode both cross-validates the
//       static and dynamic tiers against each other; --mode interference
//       classifies every cross-process op pair of each protocol's IR as
//       independent or may-interfere (the relation `bsr explore --por`
//       consumes) and warns on bounded registers no pair conflicts on
//       (static-interference; --max-pairs caps the rendered pair detail,
//       0 = unlimited); --mode steps derives per-process symbolic step
//       bounds (static-termination on undeclared [0, ∞] loops), proves
//       them against the step claims for all parameter valuations
//       (static-step-bound), and cross-validates them against the max
//       steps the explorer observes. Exits 0 clean, 1 on
//       violations (including all-params refutations), 2 on usage errors
//       (an unknown flag among them) or static/dynamic disagreement.
//       `bsr lint --help` prints the full flag and exit-code reference.
//   bsr doc [--serve-modes]
//       Render the built-in protocol registry as the markdown protocol
//       reference (register tables, claimed widths, topology, paper
//       anchors) on stdout. docs/PROTOCOLS.md is this output, committed;
//       scripts/update_goldens.sh regenerates it and CI fails on drift.
//       --serve-modes renders only the `bsr serve` request-mode table
//       (the fragment update_goldens.sh splices into docs/SERVE.md).
//   bsr serve [--socket PATH] [--workers N] [--queue N]
//             [--cache-entries N] [--cache-bytes N]
//       Run the batched analysis daemon: newline-delimited JSON requests
//       over an AF_UNIX socket, answered by a worker pool with an IR-keyed
//       result cache. With --request JSON, act as a client instead (one
//       request, print the response line, exit 0 ok / 1 findings / 2 usage
//       or transport error / 3 overloaded); --loopback answers --request
//       in-process without a daemon. docs/SERVE.md is the wire contract.
//
// Flags may be spelled `--key value` or `--key=value`.
#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "analysis/doc.h"
#include "analysis/lint.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/service.h"
#include "core/alg1.h"
#include "core/alg6.h"
#include "core/lemma82.h"
#include "core/packed.h"
#include "core/sec4.h"
#include "core/sec6.h"
#include "sim/explore.h"
#include "sim/trace_fmt.h"
#include "sim/tt.h"
#include "util/errors.h"
#include "tasks/approx.h"
#include "tasks/checker.h"

namespace {

using namespace bsr;

struct Args {
  std::map<std::string, std::string> kv;

  [[nodiscard]] std::uint64_t u64(const std::string& key,
                                  std::uint64_t def) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return def;
    try {
      std::size_t pos = 0;
      const std::uint64_t v = std::stoull(it->second, &pos);
      if (pos != it->second.size()) throw std::invalid_argument(key);
      return v;
    } catch (const std::exception&) {
      // stoull aborts the process on overflow/garbage if left uncaught;
      // surface a usage error like the --threads parser does.
      throw UsageError("--" + key + " '" + it->second +
                       "': expected an unsigned integer");
    }
  }
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return kv.contains(key);
  }
  /// The first given flag not in `known`, or "" if there is none.
  [[nodiscard]] std::string unknown(
      std::initializer_list<std::string_view> known) const {
    for (const auto& [key, value] : kv) {
      if (std::find(known.begin(), known.end(), key) == known.end()) return key;
    }
    return "";
  }
};

Args parse(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    // `--key=value` carries its value inline and never consumes the next
    // argument; `--key value` does.
    if (const auto eq = key.find('='); eq != std::string::npos) {
      a.kv[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      a.kv[key] = argv[++i];
    } else {
      a.kv[key] = "";
    }
  }
  return a;
}

void print_outcome(const sim::Sim& sim, std::uint64_t denom) {
  for (int i = 0; i < sim.n(); ++i) {
    std::cout << "p" << i << ": ";
    if (sim.crashed(i)) {
      std::cout << "crashed";
    } else if (sim.terminated(i)) {
      std::cout << sim.decision(i).as_u64() << "/" << denom << " in "
                << sim.steps(i) - 1 << " ops";
    } else {
      std::cout << "blocked";
    }
    std::cout << "\n";
  }
}

int cmd_agree(const Args& a) {
  const std::uint64_t k = a.u64("k", 10);
  const std::array<std::uint64_t, 2> xs{a.u64("x0", 0), a.u64("x1", 1)};
  sim::Sim sim(2);
  if (a.flag("packed")) {
    core::install_packed_alg1(sim, k, xs);
  } else {
    core::install_alg1(sim, k, xs);
  }
  if (a.kv.contains("seed")) {
    sim::RandomRunOptions opts;
    opts.seed = a.u64("seed", 1);
    opts.max_crashes = static_cast<int>(a.u64("crashes", 0));
    run_random(sim, opts);
  } else {
    run_round_robin(sim);
  }
  std::cout << "Algorithm 1" << (a.flag("packed") ? " (packed, 3-bit)" : "")
            << ", ε = 1/" << core::alg1_denominator(k) << "\n";
  print_outcome(sim, core::alg1_denominator(k));
  return 0;
}

int cmd_fast(const Args& a) {
  const int rounds = static_cast<int>(a.u64("rounds", 4));
  const core::FastAgreementPlan plan({rounds, 2});
  sim::Sim sim(2);
  core::install_fast_agreement(sim, plan, {a.u64("x0", 0), a.u64("x1", 1)});
  run_round_robin(sim);
  std::cout << "Theorem 8.1 fast agreement, ε = 1/" << plan.path_length()
            << " (6-bit registers)\n";
  print_outcome(sim, plan.path_length());
  return 0;
}

int cmd_stack(const Args& a) {
  const int n = static_cast<int>(a.u64("n", 5));
  const int t = static_cast<int>(a.u64("t", 2));
  const int rounds = static_cast<int>(a.u64("rounds", 1));
  std::vector<std::uint64_t> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(static_cast<std::uint64_t>(i % 2));
  sim::Sim sim(n);
  auto result = std::make_shared<core::Sec6Result>(n);
  core::install_register_stack(sim, core::Sec6Options{t, rounds}, inputs,
                               result);
  const auto rep = run_round_robin_until(
      sim, core::Sec6Result::done_predicate(result), 500'000'000);
  std::cout << "Theorem 1.3 stack: n=" << n << " t=" << t << " width="
            << core::sec6_register_bits(t) << " bits, " << rep.steps
            << " steps\n";
  for (int i = 0; i < n; ++i) {
    std::cout << "p" << i << ": ";
    if (result->decision[static_cast<std::size_t>(i)]) {
      std::cout << *result->decision[static_cast<std::size_t>(i)] << "/"
                << (1 << rounds);
    } else {
      std::cout << "undecided";
    }
    std::cout << "\n";
  }
  return rep.hit_step_limit ? 1 : 0;
}

int cmd_adversary(const Args& a) {
  const std::uint64_t k = a.u64("k", 5);
  const auto c = core::find_footprint_collision(k);
  if (!c) {
    std::cout << "no collision at k=" << k << "\n";
    return 1;
  }
  std::cout << "collision after " << c->executions_searched
            << " executions: footprint '" << c->word << "' outputs {"
            << c->outputs_a[0] << "," << c->outputs_a[1] << "} vs {"
            << c->outputs_b[0] << "," << c->outputs_b[1] << "} over "
            << 2 * k + 1 << "\n";
  std::cout << "schedule A: " << sim::format_schedule(c->sched_a) << "\n";
  std::cout << "schedule B: " << sim::format_schedule(c->sched_b) << "\n";
  return 0;
}

int cmd_iis(const Args& a) {
  const int rounds = static_cast<int>(a.u64("rounds", 4));
  sim::Sim sim(2);
  core::install_labelling_agreement(sim, rounds,
                                    {a.u64("x0", 0), a.u64("x1", 1)});
  if (a.kv.contains("seed")) {
    sim::RandomRunOptions opts;
    opts.seed = a.u64("seed", 1);
    opts.max_crashes = 1;
    run_random(sim, opts);
  } else {
    run_round_robin(sim);
  }
  std::cout << "Lemma 8.2 IIS agreement, ε = 1/" << core::pow3(rounds) << "\n";
  print_outcome(sim, core::pow3(rounds));
  return 0;
}

int cmd_trace(const Args& a) {
  const std::uint64_t k = a.u64("k", 2);
  sim::SimOptions opts;
  opts.n = 2;
  opts.record_trace = true;
  sim::Sim sim(std::move(opts));
  core::install_alg1(sim, k, {0, 1});
  std::vector<sim::Choice> sched;
  std::istringstream is(a.str("schedule", ""));
  std::string tok;
  while (is >> tok) {
    if (tok.size() >= 2 && tok[0] == 'p') {
      sched.push_back(
          sim::Choice{sim::Choice::Kind::Step, tok[1] - '0', -1});
    }
  }
  run_schedule(sim, sched);
  run_round_robin(sim);
  std::cout << format_trace(sim);
  print_outcome(sim, core::alg1_denominator(k));
  return 0;
}

constexpr const char* kExploreUsage =
    R"(usage: bsr explore [--k N] [--crashes N] [--max-steps N] [--threads N|auto]
                   [--tt] [--tt-bytes N] [--por] [--json]

Exhaustively enumerates Algorithm 1's executions and reports the decision
spread against the paper's |y1-y2| <= 1 claim.

  --k N            grid size (default 2)
  --crashes N      crash budget for the adversary (default 0)
  --max-steps N    per-execution step bound (default 1000)
  --threads N      worker count; 0 defers to BSR_EXPLORE_THREADS, 'auto'
                   uses the hardware concurrency (default 0)
  --tt             report the distinct final configurations in place of the
                   execution count, and the transposition table's counters
                   (every search counts schedules through the table)
  --tt-bytes N     size of the table every search uses, in bytes (default
                   4194304; implies --tt)
  --por            sleep-set partial-order reduction, driven by the static
                   interference relation (`bsr lint --mode=interference`);
                   the table then sees only complete states, so the --tt
                   counters count the reduced search's leaves
  --json           one JSON object instead of text
  --help           print this help and exit

exit status: 0 ok; 1 decision gap above the paper's bound, usage error
(including an unknown flag) or model error.
)";

int cmd_explore(const Args& a) {
  if (const std::string bad =
          a.unknown({"k", "crashes", "max-steps", "threads", "tt", "tt-bytes",
                     "por", "json", "help"});
      !bad.empty()) {
    throw UsageError("bsr explore: unknown flag '--" + bad +
                     "' (see bsr explore --help)");
  }
  if (a.flag("help")) {
    std::cout << kExploreUsage;
    return 0;
  }
  const std::uint64_t k = a.u64("k", 2);
  sim::ExploreOptions opts;
  opts.max_steps = static_cast<long>(a.u64("max-steps", 1000));
  opts.max_crashes = static_cast<int>(a.u64("crashes", 0));
  const std::string t = a.str("threads", "0");
  if (t == "auto") {
    const unsigned hw = std::thread::hardware_concurrency();
    opts.threads = hw == 0 ? 1 : static_cast<int>(hw);
  } else {
    try {
      std::size_t pos = 0;
      opts.threads = std::stoi(t, &pos);
      usage_check(pos == t.size() && opts.threads >= 0, "");
    } catch (...) {
      throw UsageError("--threads '" + t +
                       "': expected a non-negative integer or 'auto'");
    }
  }
  // threads = 0 falls through to BSR_EXPLORE_THREADS (or 1 if unset).
  const int resolved = sim::resolve_explore_threads(opts.threads);

  const bool use_tt = a.flag("tt") || a.flag("tt-bytes");
  const bool json = a.flag("json");
  opts.por = a.flag("por");
  // The table never changes the count, so every search memoizes; --tt only
  // reports the visits (distinct final states) and the table's counters.
  const auto tt = std::make_shared<sim::TranspositionTable>(
      static_cast<std::size_t>(a.u64("tt-bytes", std::size_t{1} << 22)));
  opts.tt = tt;

  const auto make = [k]() {
    auto sim = std::make_unique<sim::Sim>(2);
    core::install_alg1(*sim, k, {0, 1});
    return sim;
  };

  core::Alg1Spread spread;
  long states = 0;
  const long executions = sim::Explorer(opts).explore(
      make, [&](sim::Sim& sim, const std::vector<sim::Choice>&) {
        spread.record(sim);
        ++states;
      });
  const long count = use_tt ? states : executions;

  const std::uint64_t denom = core::alg1_denominator(k);
  if (json) {
    std::cout << "{\"command\":\"explore\",\"protocol\":\"alg1\",\"k\":" << k
              << ",\"crashes\":" << opts.max_crashes
              << ",\"threads\":" << resolved
              << ",\"por\":" << (opts.por ? "true" : "false")
              << ",\"" << (use_tt ? "states" : "executions")
              << "\":" << count << ",\"decisions\":{\"min\":" << spread.min
              << ",\"max\":" << spread.max << ",\"denominator\":" << denom
              << ",\"max_gap\":" << spread.max_gap << "}";
    if (use_tt) {
      const sim::TranspositionTable::Stats s = tt->stats();
      std::cout << ",\"tt\":{\"bytes\":"
                << s.slots * sim::TranspositionTable::kSlotBytes
                << ",\"probes\":" << s.probes << ",\"hits\":" << s.hits
                << ",\"stores\":" << s.stores << ",\"drops\":" << s.drops
                << "}";
    }
    std::cout << "}\n";
  } else {
    std::cout << "Algorithm 1 exploration: k=" << k << " crashes<="
              << opts.max_crashes << " threads=" << resolved
              << (opts.por ? " por=on" : "") << "\n"
              << (use_tt ? "distinct final states: " : "executions: ")
              << count << "\n"
              << "decisions: [" << spread.min << ", " << spread.max << "]/"
              << denom << ", max |y1-y2| (grid steps): " << spread.max_gap
              << " (paper: <= 1)\n";
    if (use_tt) {
      const sim::TranspositionTable::Stats s = tt->stats();
      std::cout << "tt: " << s.slots * sim::TranspositionTable::kSlotBytes
                << " bytes, probes " << s.probes
                << ", hits " << s.hits << ", stores " << s.stores
                << ", drops " << s.drops << "\n";
    }
  }
  return spread.max_gap <= 1 ? 0 : 1;
}

int cmd_lint(const Args& a) {
  if (const std::string bad = a.unknown(
          {"protocol", "mode", "static", "max-pairs", "json", "list", "help"});
      !bad.empty()) {
    std::cerr << "bsr lint: unknown flag '--" << bad
              << "' (see bsr lint --help)\n";
    return 2;
  }
  analysis::LintOptions opts;
  opts.json = a.flag("json");
  opts.list = a.flag("list");
  opts.help = a.flag("help");
  std::string mode = a.str("mode", "");
  if (a.flag("static")) {
    if (!mode.empty() && mode != "static") {
      std::cerr << "bsr lint: --static conflicts with --mode " << mode
                << "\n";
      return 2;
    }
    mode = "static";
  }
  const std::optional<analysis::LintMode> parsed =
      analysis::parse_lint_mode(mode);
  if (!parsed) {
    std::cerr << "bsr lint: unknown mode '" << mode << "' (expected "
              << analysis::kLintModeNames << ")\n";
    return 2;
  }
  opts.mode = *parsed;
  opts.max_pairs = static_cast<std::size_t>(
      a.u64("max-pairs", static_cast<std::uint64_t>(opts.max_pairs)));
  std::istringstream names(a.str("protocol", ""));
  std::string name;
  while (std::getline(names, name, ',')) {
    if (!name.empty()) opts.protocols.push_back(name);
  }
  // `--protocol` with an empty (or all-commas) value must not silently fall
  // through to the default all-protocols sweep: surface it as an unknown
  // protocol name instead.
  if (a.flag("protocol") && opts.protocols.empty()) {
    opts.protocols.push_back("");
  }
  return run_lint(opts, std::cout, std::cerr);
}

int cmd_doc(const Args& a) {
  if (a.flag("serve-modes")) {
    analysis::write_serve_modes(std::cout);
    return 0;
  }
  analysis::write_protocol_reference(std::cout);
  return 0;
}

constexpr const char* kServeUsage =
    R"(usage: bsr serve [--socket PATH] [--workers N] [--queue N]
                 [--cache-entries N] [--cache-bytes N]
       bsr serve --request JSON [--socket PATH]
       bsr serve --request JSON --loopback

Daemon mode (no --request): listen on an AF_UNIX socket for
newline-delimited JSON requests ({"mode":"lint",...}, {"batch":[...]}, ...)
and answer them from a worker pool with an IR-keyed result cache. A
`shutdown` request, SIGINT, or SIGTERM drains in-flight work and exits.
docs/SERVE.md is the full request/response contract.

  --socket PATH      socket path (default ./bsr.sock)
  --workers N        worker threads (default 2)
  --queue N          accepted-connection queue bound; a full queue answers
                     new connections with an `overloaded` envelope (default
                     16)
  --cache-entries N  result-cache entry budget (default 1024)
  --cache-bytes N    result-cache payload-byte budget (default 67108864)

Client mode (--request): send one request to a running daemon and print the
response line. --loopback answers the request in-process instead (no daemon
needed; used by tests and goldens).

exit codes (client/loopback):
  0  response ok with payload exit 0
  1  response ok with findings (payload exit nonzero)
  2  usage, transport, or analysis error
  3  daemon overloaded (queue full; retry later)
)";

/// Maps a response envelope to the client exit code above. Batch envelopes
/// take the worst element.
int response_exit(const serve::Json& r) {
  if (!r.bool_or("ok", false)) {
    return r.str_or("error", "") == "overloaded" ? 3 : 2;
  }
  if (const serve::Json* batch = r.get("batch")) {
    int worst = 0;
    for (const serve::Json& e : batch->array()) {
      worst = std::max(worst, response_exit(e));
    }
    return worst;
  }
  return r.num_or("exit", 0) == 0 ? 0 : 1;
}

int cmd_serve(const Args& a) {
  if (a.flag("help")) {
    std::cout << kServeUsage;
    return 0;
  }
  try {
    serve::ServiceOptions so;
    so.cache_entries =
        static_cast<std::size_t>(a.u64("cache-entries", 1024));
    so.cache_bytes =
        static_cast<std::size_t>(a.u64("cache-bytes", 64u << 20));
    const std::string request = a.str("request", "");
    if (a.flag("loopback")) {
      usage_check(!request.empty(), "--loopback requires --request JSON");
      serve::Service service(so);
      const std::string resp = service.handle_line(request);
      std::cout << resp;  // handle_line output is newline-terminated
      return response_exit(
          serve::Json::parse(resp.substr(0, resp.size() - 1)));
    }
    if (!request.empty()) {
      const std::string resp =
          serve::client_roundtrip(a.str("socket", "bsr.sock"), request);
      std::cout << resp << "\n";
      return response_exit(serve::Json::parse(resp));
    }
    serve::ServerOptions opts;
    opts.socket_path = a.str("socket", "bsr.sock");
    opts.workers = static_cast<int>(a.u64("workers", 2));
    opts.queue = static_cast<std::size_t>(a.u64("queue", 16));
    opts.service = so;
    return serve::run_server(opts, std::cout);
  } catch (const UsageError& e) {
    // The serve contract reserves 2 for usage/transport failures (main's
    // generic Error handler would exit 1, which means "findings" here).
    std::cerr << "bsr serve: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cout << "usage: bsr <agree|fast|stack|adversary|iis|trace|explore"
                 "|lint|doc|serve> [--flags]\n"
                 "see the header comment of tools/bsr_cli.cpp\n";
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args = parse(argc, argv, 2);
  try {
    if (cmd == "agree") return cmd_agree(args);
    if (cmd == "fast") return cmd_fast(args);
    if (cmd == "stack") return cmd_stack(args);
    if (cmd == "adversary") return cmd_adversary(args);
    if (cmd == "iis") return cmd_iis(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "explore") return cmd_explore(args);
    if (cmd == "lint") return cmd_lint(args);
    if (cmd == "doc") return cmd_doc(args);
    if (cmd == "serve") return cmd_serve(args);
  } catch (const bsr::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Backstop for non-model failures (e.g. bad_alloc from an oversized
    // --tt-bytes): a clean usage-style exit beats an abort.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "unknown command '" << cmd << "'\n";
  return 2;
}
