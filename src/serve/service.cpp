#include "serve/service.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "analysis/claims.h"
#include "analysis/diag.h"
#include "analysis/doc.h"
#include "analysis/lint.h"
#include "analysis/static/fingerprint.h"
#include "core/alg1.h"
#include "serve/json.h"
#include "sim/explore.h"
#include "sim/sim.h"
#include "sim/tt.h"
#include "util/errors.h"

namespace bsr::serve {

namespace {

namespace air = bsr::analysis::ir;

// Key-chain seed for the serve cache, distinct from every per-family tag in
// fingerprint.cpp (those start at ...0001).
constexpr std::uint64_t kKeySeed = air::fp_mix(0x5e21c0de000000ffULL);

// Request-size guards: the daemon is a local analysis service, not a job
// farm; anything past these bounds should run through the CLI instead.
constexpr long kMaxExploreK = 6;
constexpr long kMaxExploreCrashes = 4;
constexpr long kMaxExploreSteps = 1'000'000;
constexpr long kMaxSleepMs = 60'000;
constexpr std::size_t kMaxBatch = 256;

// Built in one reserved string: a warm hit's cost is this copy of the
// payload, which the reserve keeps to one allocation, the caller's trailing
// newline included.
std::string ok_envelope(const ModeInfo& info, bool cached, std::uint64_t key,
                        int exit, const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 128);
  out += "{\"ok\":true,\"mode\":\"";
  out += info.mode;
  out += cached ? "\",\"cached\":true" : "\",\"cached\":false";
  if (info.cacheable) {
    out += ",\"key\":\"";
    out += air::fp_hex(key);
    out += '"';
  }
  out += ",\"exit\":";
  out += std::to_string(exit);
  out += ",\"payload\":";
  out += payload;
  out += '}';
  return out;
}

// Strips the producer's single trailing newline: payloads are embedded in a
// one-line envelope, and the golden/differential tests compare against the
// direct CLI output with its newline stripped the same way.
std::string chomp(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

analysis::LintMode lint_mode(const Json& req) {
  const std::string mode = req.str_or("lint_mode", "dynamic");
  const std::optional<analysis::LintMode> parsed =
      analysis::parse_lint_mode(mode);
  if (!parsed) {
    throw UsageError("unknown lint_mode '" + mode + "' (expected " +
                     analysis::kLintModeNames + ")");
  }
  return *parsed;
}

std::vector<std::string> parse_protocols(const Json& req) {
  std::vector<std::string> names;
  const Json* list = req.get("protocols");
  if (list == nullptr) return names;
  usage_check(list->is_array(), "field 'protocols' must be an array");
  for (const Json& name : list->array()) {
    usage_check(name.is_string(), "protocol names must be strings");
    names.push_back(name.str());
  }
  return names;
}

long bounded_num(const Json& req, const std::string& key, long def, long lo,
                 long hi) {
  const long v = req.num_or(key, def);
  usage_check(v >= lo && v <= hi,
              "field '" + key + "' must be in [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "]");
  return v;
}

}  // namespace

std::string error_envelope(const char* category, const std::string& message) {
  return std::string("{\"ok\":false,\"error\":\"") + category +
         "\",\"message\":\"" + analysis::json_escape(message) + "\"}";
}

Service::Service(ServiceOptions opts)
    : opts_(opts), cache_(opts.cache_entries, opts.cache_bytes) {
  std::size_t count = 0;
  (void)dispatch_table(&count);
  modes_.resize(count);
}

const std::vector<analysis::ProtocolSpec>& Service::registry() const {
  return opts_.registry != nullptr ? *opts_.registry
                                   : analysis::builtin_protocols();
}

std::uint64_t Service::spec_fingerprint(const analysis::ProtocolSpec& spec) {
  {
    const std::lock_guard<std::mutex> lock(memo_mu_);
    const auto it = fp_memo_.find(&spec);
    if (it != fp_memo_.end()) return it->second;
  }
  // Cover every spec field the analyzers can observe, not just the IR: the
  // claims and exploration bounds steer verdicts too (docs/SERVE.md "The
  // cache key").
  std::uint64_t h = kKeySeed;
  h = air::fp_combine_str(h, spec.name);
  h = air::fp_combine(h,
                      static_cast<std::uint64_t>(spec.claim.max_register_bits));
  h = air::fp_combine(
      h, spec.claim.per_process_bits
             ? static_cast<std::uint64_t>(*spec.claim.per_process_bits) + 1
             : 0);
  h = air::fp_combine_str(h, spec.claim.source);
  h = air::fp_combine(h, air::fingerprint(spec.claim.symbolic_bits));
  h = air::fp_combine(h, air::fingerprint(spec.step_claim.max_steps));
  h = air::fp_combine_str(h, spec.step_claim.source);
  h = air::fp_combine(h, static_cast<std::uint64_t>(spec.explore.max_steps));
  h = air::fp_combine(h,
                      static_cast<std::uint64_t>(spec.explore.max_crashes));
  h = air::fp_combine(h, spec.sample_runner ? 1 : 0);
  h = air::fp_combine(h, static_cast<std::uint64_t>(spec.sample_seeds));
  h = air::fp_combine(h, air::fingerprint(spec.params));
  h = air::fp_combine(h, spec.demo ? 1 : 0);
  // The IR reflection is the expensive part; the memo below is what makes
  // repeated and batched requests share one reflection per spec.
  h = air::fp_combine(h, spec.describe ? air::fingerprint(spec.describe())
                                       : air::fp_mix(kKeySeed));
  const std::lock_guard<std::mutex> lock(memo_mu_);
  fp_memo_.emplace(&spec, h);
  return h;
}

std::uint64_t Service::lint_key(const Json& req) {
  const analysis::LintMode mode = lint_mode(req);
  const long max_pairs = bounded_num(req, "max_pairs", 2048, 0, 1 << 20);
  const std::vector<std::string> names = parse_protocols(req);

  std::vector<const analysis::ProtocolSpec*> specs;
  const std::vector<analysis::ProtocolSpec>& reg = registry();
  if (names.empty()) {
    for (const analysis::ProtocolSpec& s : reg) {
      if (!s.demo) specs.push_back(&s);
    }
  } else {
    for (const std::string& name : names) {
      const analysis::ProtocolSpec* found = nullptr;
      for (const analysis::ProtocolSpec& s : reg) {
        if (s.name == name) {
          found = &s;
          break;
        }
      }
      if (found == nullptr) {
        throw UsageError("unknown protocol '" + name +
                         "' (see `bsr lint --list`)");
      }
      specs.push_back(found);
    }
  }

  std::uint64_t h = air::fp_combine_str(kKeySeed, "lint");
  h = air::fp_combine(h, static_cast<std::uint64_t>(mode));
  h = air::fp_combine(h, static_cast<std::uint64_t>(max_pairs));
  for (const analysis::ProtocolSpec* s : specs) {
    h = air::fp_combine(h, spec_fingerprint(*s));
  }
  return h;
}

std::uint64_t Service::explore_key(const Json& req) {
  const long k = bounded_num(req, "k", 2, 1, kMaxExploreK);
  const long crashes = bounded_num(req, "crashes", 0, 0, kMaxExploreCrashes);
  const long max_steps =
      bounded_num(req, "max_steps", 1000, 1, kMaxExploreSteps);
  std::uint64_t h = air::fp_combine_str(kKeySeed, "explore");
  // Within one build, Algorithm 1's IR is a fixed function of k, and the
  // cache dies with the daemon, so k stands for the protocol.
  h = air::fp_combine(h, static_cast<std::uint64_t>(k));
  h = air::fp_combine(h, static_cast<std::uint64_t>(crashes));
  h = air::fp_combine(h, static_cast<std::uint64_t>(max_steps));
  return h;
}

std::uint64_t Service::doc_key() {
  // `doc` renders the built-in registry (analysis::write_protocol_reference
  // does not take a registry), so its key folds over the built-ins even
  // when a test registry is installed.
  std::uint64_t h = air::fp_combine_str(kKeySeed, "doc");
  for (const analysis::ProtocolSpec& s : analysis::builtin_protocols()) {
    h = air::fp_combine(h, spec_fingerprint(s));
  }
  return h;
}

CacheEntry Service::run_lint_cold(const Json& req) {
  analysis::LintOptions lo;
  lo.json = true;
  lo.mode = lint_mode(req);
  lo.max_pairs = static_cast<std::size_t>(
      bounded_num(req, "max_pairs", 2048, 0, 1 << 20));
  lo.protocols = parse_protocols(req);
  lo.registry = opts_.registry;
  std::ostringstream out;
  std::ostringstream err;
  const int code = analysis::run_lint(lo, out, err);
  if (code == 2) throw ModelError(chomp(err.str()));
  return CacheEntry{code,
                    std::make_shared<const std::string>(chomp(out.str()))};
}

CacheEntry Service::run_explore_cold(const Json& req) {
  const auto k =
      static_cast<std::uint64_t>(bounded_num(req, "k", 2, 1, kMaxExploreK));
  const long crashes = bounded_num(req, "crashes", 0, 0, kMaxExploreCrashes);
  const long max_steps =
      bounded_num(req, "max_steps", 1000, 1, kMaxExploreSteps);

  sim::ExploreOptions eo;
  eo.max_steps = max_steps;
  eo.max_crashes = static_cast<int>(crashes);
  eo.threads = 1;  // deterministic and cheap: repeats come from the cache
  eo.tt = std::make_shared<sim::TranspositionTable>(sim::kSmallTableBytes);

  core::Alg1Spread spread;
  sim::Explorer ex(eo);
  const long execs = ex.explore(
      [k]() {
        auto sim = std::make_unique<sim::Sim>(2);
        core::install_alg1(*sim, k, {0, 1});
        return sim;
      },
      [&](sim::Sim& sim, const std::vector<sim::Choice>&) {
        spread.record(sim);
      });

  std::ostringstream os;
  os << "{\"protocol\":\"alg1\",\"k\":" << k << ",\"crashes\":" << crashes
     << ",\"max_steps\":" << max_steps << ",\"executions\":" << execs
     << ",\"decisions\":{\"min\":" << (spread.min == ~0ULL ? 0 : spread.min)
     << ",\"max\":" << spread.max
     << ",\"denominator\":" << core::alg1_denominator(k)
     << ",\"max_gap\":" << spread.max_gap << "}}";
  return CacheEntry{spread.max_gap <= 1 ? 0 : 1,
                    std::make_shared<const std::string>(os.str())};
}

CacheEntry Service::run_doc_cold() {
  std::ostringstream os;
  analysis::write_protocol_reference(os);
  // Encoded once, here: a hit splices the cached JSON string as it is
  // instead of re-escaping the whole markdown reference.
  return CacheEntry{0, std::make_shared<const std::string>(
                          '"' + analysis::json_escape(chomp(os.str())) + '"')};
}

std::string Service::stats_payload() {
  const CacheStats cs = cache_.stats();
  std::ostringstream os;
  os << "{\"cache\":{\"hits\":" << cs.hits << ",\"misses\":" << cs.misses
     << ",\"evictions\":" << cs.evictions << ",\"entries\":" << cs.entries
     << ",\"bytes\":" << cs.bytes << "},\"analyses_run\":"
     << analyses_run_.load(std::memory_order_acquire) << ",\"modes\":[";
  std::size_t count = 0;
  const ModeInfo* table = dispatch_table(&count);
  const std::lock_guard<std::mutex> lock(stats_mu_);
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) os << ",";
    os << "{\"mode\":\"" << table[i].mode
       << "\",\"requests\":" << modes_[i].requests
       << ",\"cache_hits\":" << modes_[i].cache_hits
       << ",\"total_us\":" << modes_[i].total_us << "}";
  }
  os << "]}";
  return os.str();
}

Service::Reply Service::dispatch(const ModeInfo& info, std::size_t mode_index,
                                 const Json& req) {
  Reply r;
  r.counted = true;
  r.mode_index = mode_index;

  const std::string mode = info.mode;
  if (info.cacheable) {
    std::uint64_t key = 0;
    if (mode == "lint") {
      key = lint_key(req);
    } else if (mode == "explore") {
      key = explore_key(req);
    } else {
      key = doc_key();
    }
    CacheEntry entry;
    if (cache_.lookup(key, &entry)) {
      r.hit = true;
      r.line = ok_envelope(info, /*cached=*/true, key, entry.exit, *entry.body);
      return r;
    }
    if (mode == "lint") {
      entry = run_lint_cold(req);
    } else if (mode == "explore") {
      entry = run_explore_cold(req);
    } else {
      entry = run_doc_cold();
    }
    analyses_run_.fetch_add(1, std::memory_order_acq_rel);
    cache_.insert(key, entry);
    r.line = ok_envelope(info, /*cached=*/false, key, entry.exit, *entry.body);
    return r;
  }

  std::string body;
  if (mode == "stats") {
    body = stats_payload();
  } else if (mode == "sleep") {
    const long ms = bounded_num(req, "ms", 0, 0, kMaxSleepMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    body = "{\"slept_ms\":" + std::to_string(ms) + "}";
  } else {  // shutdown
    stop_.store(true, std::memory_order_release);
    body = "{\"stopping\":true}";
  }
  r.line = ok_envelope(info, /*cached=*/false, 0, 0, body);
  return r;
}

Service::Reply Service::handle_request(const Json& req) {
  usage_check(req.is_object(), "request must be a JSON object");
  usage_check(req.get("batch") == nullptr, "batches cannot nest");
  const std::string mode = req.str_or("mode", "");
  const ModeInfo* info = find_mode(mode.c_str());
  if (info == nullptr) {
    std::string known;
    std::size_t count = 0;
    const ModeInfo* table = dispatch_table(&count);
    for (std::size_t i = 0; i < count; ++i) {
      known += (i > 0 ? ", " : "") + std::string(table[i].mode);
    }
    throw UsageError("unknown mode '" + mode + "' (expected " + known + ")");
  }
  std::size_t count = 0;
  const std::size_t index =
      static_cast<std::size_t>(info - dispatch_table(&count));
  const auto t0 = std::chrono::steady_clock::now();
  Reply r = dispatch(*info, index, req);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  const std::lock_guard<std::mutex> lock(stats_mu_);
  ++modes_[index].requests;
  if (r.hit) ++modes_[index].cache_hits;
  modes_[index].total_us += static_cast<std::uint64_t>(us);
  return r;
}

std::string Service::safe_request(const Json& req) {
  try {
    return handle_request(req).line;
  } catch (const UsageError& e) {
    return error_envelope("usage", e.what());
  } catch (const std::exception& e) {
    return error_envelope("analysis", e.what());
  }
}

std::string Service::handle_line(const std::string& line) {
  Json req;
  try {
    req = Json::parse(line);
    usage_check(req.is_object(), "request must be a JSON object");
  } catch (const std::exception& e) {
    return error_envelope("usage", e.what()) + "\n";
  }
  const Json* batch = req.get("batch");
  if (batch == nullptr) return safe_request(req) + "\n";

  // A batch answers each element in order in one envelope. Elements run
  // sequentially on this worker, so identical elements after the first are
  // cache hits (one cold analysis per distinct key) and all elements share
  // the per-spec IR-reflection memo.
  std::string out = "{\"ok\":true,\"batch\":[";
  try {
    const std::vector<Json>& reqs = batch->array();
    usage_check(reqs.size() <= kMaxBatch,
                "batch larger than " + std::to_string(kMaxBatch));
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (i > 0) out += ",";
      out += safe_request(reqs[i]);
    }
  } catch (const std::exception& e) {
    return error_envelope("usage", e.what()) + "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace bsr::serve
