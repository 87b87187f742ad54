// serve-mix: a real `bsr serve` daemon driven over its AF_UNIX socket by a
// closed loop of two client threads, one connection per request, as
// `bsr serve --request` makes them.
//
// The traffic is what the repository's own callers send (caller_requests):
// CI's registry lint sweeps and Algorithm 1 enumerations, the CI serve
// job's batched request and its warm repeats, `bsr bench serve`'s request,
// and the worked examples of docs/SERVE.md. One pass sends each of them
// once, in an order set by the run's seed. A round is a fresh daemon, one
// cold pass, then kWarmPasses warm passes of the same requests. So the hit
// share is a property of the stream, not of how many rounds fit in a run.
//
// Hit or miss of every element is predicted from the stream alone: a
// request whose key's first occurrence is still in flight waits for it, so
// concurrent clients never race a cold analysis, and the universe fits the
// daemon's 1024-entry cache, so nothing is evicted.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "analysis/claims.h"
#include "core/alg1.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/service.h"
#include "workloads.h"

namespace pb {

namespace ana = bsr::analysis;
using bsr::serve::Json;

namespace {

constexpr int kClients = 2;
/// Warm passes per cold pass. No caller fixes how often an unchanged
/// registry is asked again; docs/SERVE.md calls the traffic repeat-heavy.
/// This is an assumption. It also gives each round over a thousand warm
/// samples.
constexpr int kWarmPasses = 100;
constexpr std::size_t kCacheEntries = 1024;  // the daemon's default budget
constexpr int kMinRounds = 3;

// ------------------------------------------------------------ daemon --

/// A `bsr serve` child process on a socket inside the work directory.
class Daemon {
 public:
  Daemon(const std::string& bsr, std::string socket) : socket_(std::move(socket)) {
    int fds[2];
    if (pipe(fds) != 0) {
      error_ = "pipe() failed";
      return;
    }
    // posix_spawn does not copy this process's page tables, so the start
    // time does not grow with the client's heap.
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    std::string arg0 = "bsr";
    std::string arg1 = "serve";
    std::string arg2 = "--socket";
    char* argv[] = {arg0.data(), arg1.data(), arg2.data(), socket_.data(),
                    nullptr};
    const Clock::time_point t0 = Clock::now();
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, bsr.c_str(), &fa, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      error_ = std::string("posix_spawn failed: ") + std::strerror(rc);
      return;
    }
    pid_ = pid;
    // Set-up ends at the `listening` banner.
    std::string banner;
    while (banner.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 10'000) <= 0) break;
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n <= 0) break;
      banner.append(buf, static_cast<std::size_t>(n));
    }
    startup_s_ = seconds_since(t0);
    ready_ = banner.find("listening") != std::string::npos;
    if (!ready_) error_ = "daemon did not print its listening banner";
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] double startup_s() const { return startup_s_; }
  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// SIGTERM is the daemon's graceful shutdown (drain, join, unlink), and
  /// unlike a `shutdown` request it interrupts the accept loop's 100 ms
  /// poll at once. SIGKILL only if it has not exited after 10 s.
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      if (!wait_exit(10.0)) {
        ::kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  bool wait_exit(double seconds) {
    const Clock::time_point t0 = Clock::now();
    while (seconds_since(t0) < seconds) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  std::string socket_;
  int pid_ = -1;
  int out_fd_ = -1;
  double startup_s_ = 0;
  bool ready_ = false;
  std::string error_;
};

// ---------------------------------------------------- universe, stream --

struct Key {
  std::string json;
  std::string mode;  ///< lint, explore or doc.
  std::vector<std::string> protocols;  ///< Empty: every non-demo spec.
  std::string lint_mode;
  long k = 0;
  long crashes = 0;
};

Key parse_key(const std::string& json) {
  const Json j = Json::parse(json);
  Key key;
  key.json = json;
  key.mode = j.str_or("mode", "");
  if (const Json* p = j.get("protocols")) {
    for (const Json& name : p->array()) key.protocols.push_back(name.str());
  }
  key.lint_mode = j.str_or("lint_mode", "dynamic");
  key.k = j.num_or("k", 2);
  key.crashes = j.num_or("crashes", 0);
  return key;
}

/// A request one of the repository's callers sends; more than one element
/// makes a batch.
struct CallerRequest {
  const char* caller;
  std::vector<std::string> elements;
};

std::vector<CallerRequest> caller_requests() {
  const std::string alg1_static =
      R"({"mode":"lint","protocols":["alg1"],"lint_mode":"static"})";
  return {
      // CI's registry sweeps (jobs lint, symbolic-prover, step-bound and
      // por-differential).
      {"ci: bsr lint --static", {R"({"mode":"lint","lint_mode":"static"})"}},
      {"ci: bsr lint --mode=both", {R"({"mode":"lint","lint_mode":"both"})"}},
      {"ci: bsr lint --mode=symbolic",
       {R"({"mode":"lint","lint_mode":"symbolic"})"}},
      {"ci: bsr lint --mode=steps", {R"({"mode":"lint","lint_mode":"steps"})"}},
      {"ci: bsr lint --mode=interference",
       {R"({"mode":"lint","lint_mode":"interference"})"}},
      // CI's Algorithm 1 enumerations (jobs tt-differential and
      // por-differential).
      {"ci: bsr explore --k 3", {R"({"mode":"explore","k":3,"crashes":0})"}},
      {"ci: bsr explore --k 2 --crashes 1",
       {R"({"mode":"explore","k":2,"crashes":1})"}},
      // CI's serve job: a batch whose repeat element hits, then the same
      // request on two more connections.
      {"ci serve: batched request", {alg1_static, alg1_static}},
      {"ci serve: warm repeat", {alg1_static}},
      {"ci serve: warm repeat", {alg1_static}},
      {"bsr bench serve",
       {R"({"mode":"lint","protocols":["alg1"],"lint_mode":"dynamic"})"}},
      // The worked examples of docs/SERVE.md not already above. doc is also
      // what CI's goldens check renders with `bsr doc`.
      {"docs/SERVE.md", {R"({"mode":"explore","k":2,"crashes":0})"}},
      {"docs/SERVE.md", {R"({"mode":"doc"})"}},
  };
}

struct Item {
  std::string line;
  std::vector<int> keys;
};

/// The request universe, one pass of the stream in the seed's order, and
/// a round's warm passes back to back.
struct Stream {
  std::vector<Key> universe;
  std::vector<Item> pass;
  std::vector<Item> warm;
  long elements = 0;  ///< Cache lookups in one pass.
};

Stream build_stream(std::uint64_t seed) {
  Stream s;
  std::vector<CallerRequest> reqs = caller_requests();
  Rng order(seed);
  shuffle(reqs, order);
  std::map<std::string, int> index;
  for (const CallerRequest& req : reqs) {
    Item it;
    for (const std::string& e : req.elements) {
      const auto [pos, fresh] =
          index.try_emplace(e, static_cast<int>(s.universe.size()));
      if (fresh) s.universe.push_back(parse_key(e));
      it.keys.push_back(pos->second);
    }
    if (req.elements.size() == 1) {
      it.line = req.elements[0];
    } else {
      it.line = "{\"batch\":[";
      for (std::size_t e = 0; e < req.elements.size(); ++e) {
        it.line += (e > 0 ? "," : "") + req.elements[e];
      }
      it.line += "]}";
    }
    s.elements += static_cast<long>(it.keys.size());
    s.pass.push_back(std::move(it));
  }
  for (int w = 0; w < kWarmPasses; ++w) {
    s.warm.insert(s.warm.end(), s.pass.begin(), s.pass.end());
  }
  return s;
}

// --------------------------------------------------------- closed loop --

struct Reply {
  std::string line;
  bool transport_ok = false;
  std::string error;
  double latency_s = 0;
  std::vector<char> predicted_hit;  ///< Per element.
};

/// Sends `items` through kClients closed-loop clients. `done` marks keys
/// whose first occurrence has completed on this daemon; it carries over
/// from the cold pass to the warm ones.
double closed_loop(const std::string& socket, const std::vector<Item>& items,
                   std::vector<char>& done, std::vector<Reply>& replies) {
  replies.assign(items.size(), Reply{});
  std::mutex mu;
  std::condition_variable cv;
  std::size_t next = 0;
  std::vector<long> owner(done.size(), -1);  // in-flight first occurrence

  const auto client = [&] {
    for (;;) {
      std::size_t i = 0;
      std::vector<int> owned;
      {
        std::unique_lock<std::mutex> lock(mu);
        if (next >= items.size()) return;
        i = next++;
        Reply& rep = replies[i];
        std::vector<int> wait_for;
        for (const int k : items[i].keys) {
          const auto ku = static_cast<std::size_t>(k);
          if (done[ku] == 0 && owner[ku] < 0) {
            owner[ku] = static_cast<long>(i);
            owned.push_back(k);
            rep.predicted_hit.push_back(0);
          } else {
            rep.predicted_hit.push_back(1);
            if (done[ku] == 0 && owner[ku] != static_cast<long>(i)) {
              wait_for.push_back(k);
            }
          }
        }
        cv.wait(lock, [&] {
          return std::all_of(wait_for.begin(), wait_for.end(), [&](int k) {
            return done[static_cast<std::size_t>(k)] != 0;
          });
        });
      }
      Reply& rep = replies[i];
      const Clock::time_point t0 = Clock::now();
      try {
        rep.line = bsr::serve::client_roundtrip(socket, items[i].line);
        rep.transport_ok = true;
      } catch (const std::exception& e) {
        rep.error = e.what();
      }
      rep.latency_s = seconds_since(t0);
      if (!owned.empty()) {
        const std::lock_guard<std::mutex> lock(mu);
        for (const int k : owned) done[static_cast<std::size_t>(k)] = 1;
        cv.notify_all();
      }
    }
  };

  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  return seconds_since(t0);
}

/// Splits `{"ok":true,"batch":[E1,E2,...]}` into its element envelopes.
bool split_batch(const std::string& reply, std::vector<std::string>& out) {
  const std::string head = "{\"ok\":true,\"batch\":[";
  if (reply.rfind(head, 0) != 0) return false;
  int depth = 0;
  bool in_string = false;
  std::size_t start = head.size();
  for (std::size_t i = start; i < reply.size(); ++i) {
    const char c = reply[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) {
        out.push_back(reply.substr(start, i - start));
        return c == ']' && reply.compare(i, std::string::npos, "]}") == 0;
      }
      --depth;
    } else if (c == ',' && depth == 0) {
      out.push_back(reply.substr(start, i - start));
      start = i + 1;
    }
  }
  return false;
}

constexpr const char* kCachedTrue = "\"cached\":true";
constexpr const char* kCachedFalse = "\"cached\":false";

/// Per-mode element counts.
struct ModeCount {
  long requests = 0;
  long hits = 0;
};

using ModeCounts = std::map<std::string, ModeCount>;

void add_counts(ModeCounts& into, const ModeCounts& from) {
  for (const auto& [mode, c] : from) {
    into[mode].requests += c.requests;
    into[mode].hits += c.hits;
  }
}

/// Client-side latencies, by class.
struct Latencies {
  std::vector<double> warm_s;  ///< Requests whose every element hit.
  std::vector<double> cold_s;  ///< Requests with at least one miss.
};

/// Checks replies against the gates and files latencies by class. The
/// first reply for a key is the one every later reply must equal, in every
/// round of the run.
class Verifier {
 public:
  explicit Verifier(const std::vector<Key>& u) : u_(u), canonical_(u.size()) {}

  /// Checks the replies to `items`; returns their per-mode element counts,
  /// as predicted from the stream.
  ModeCounts check(const std::vector<Item>& items,
                   const std::vector<Reply>& replies, RunResult& r,
                   Latencies& lat) {
    ModeCounts counts;
    for (std::size_t i = 0; i < items.size(); ++i) {
      ++r.attempted;
      const Reply& rep = replies[i];
      const std::vector<int>& keys = items[i].keys;
      for (std::size_t e = 0; e < keys.size(); ++e) {
        ModeCount& m = counts[u_[static_cast<std::size_t>(keys[e])].mode];
        ++m.requests;
        m.hits += rep.predicted_hit[e];
      }
      if (!rep.transport_ok) {
        r.fail("transport: " + rep.error);
        continue;
      }
      std::vector<std::string> envs;
      if (keys.size() == 1) {
        envs.push_back(rep.line);
      } else if (!split_batch(rep.line, envs)) {
        r.fail("malformed batch reply");
        continue;
      }
      if (envs.size() != keys.size()) {
        r.fail("batch reply has the wrong element count");
        continue;
      }
      bool ok = true;
      bool all_hit = true;
      for (std::size_t e = 0; e < envs.size() && ok; ++e) {
        std::string& env = envs[e];
        // The envelope's own fields come before its payload.
        const std::size_t cached = env.find("\"cached\":");
        const bool hit = cached != std::string::npos &&
                         env.compare(cached, 13, kCachedTrue) == 0;
        const std::size_t exit = env.find("\"exit\":", cached);
        all_hit = all_hit && hit;
        if (env.rfind("{\"ok\":true,", 0) != 0 || exit == std::string::npos) {
          r.fail("reply not ok: " + env.substr(0, 160));
          ok = false;
        } else if (env.compare(exit, 9, "\"exit\":0,") != 0) {
          r.fail("nonzero exit: " + env.substr(0, 160));
          ok = false;
        } else if (hit != (rep.predicted_hit[e] != 0)) {
          r.fail("element " + std::string(hit ? "hit" : "missed") +
                 " against the prediction: " + items[i].line.substr(0, 120));
          ok = false;
        } else {
          if (hit) env.replace(cached, 13, kCachedFalse);
          std::string& canon = canonical_[static_cast<std::size_t>(keys[e])];
          if (canon.empty()) {
            canon = env;
          } else if (canon != env) {
            r.fail("reply differs from the first reply for its request: " +
                   items[i].line.substr(0, 120));
            ok = false;
          }
        }
      }
      if (!ok) continue;
      (all_hit ? lat.warm_s : lat.cold_s).push_back(rep.latency_s);
    }
    return counts;
  }

 private:
  const std::vector<Key>& u_;
  std::vector<std::string> canonical_;
};

/// The daemon's own counters, from its `stats` reply.
struct DaemonStats {
  long hits = 0;
  long misses = 0;
  long evictions = 0;
  long analyses = 0;
  ModeCounts modes;
  std::map<std::string, long> total_us;  ///< Per mode, summed over requests.
};

bool fetch_stats(const std::string& socket, DaemonStats& out, std::string& why) {
  try {
    const ScopedSpan span("daemon.stats");
    const Json reply = Json::parse(
        bsr::serve::client_roundtrip(socket, "{\"mode\":\"stats\"}"));
    const Json* p = reply.get("payload");
    const Json* cache = p != nullptr ? p->get("cache") : nullptr;
    if (cache == nullptr) {
      why = "stats reply without a cache object";
      return false;
    }
    out.hits = cache->num_or("hits", -1);
    out.misses = cache->num_or("misses", -1);
    out.evictions = cache->num_or("evictions", -1);
    out.analyses = p->num_or("analyses_run", -1);
    const Json* modes = p->get("modes");
    if (modes == nullptr || !modes->is_array()) {
      why = "stats reply without per-mode counters";
      return false;
    }
    for (const Json& m : modes->array()) {
      const std::string name = m.str_or("mode", "");
      out.modes[name] =
          ModeCount{m.num_or("requests", 0), m.num_or("cache_hits", 0)};
      out.total_us[name] = m.num_or("total_us", 0);
    }
    return true;
  } catch (const std::exception& e) {
    why = std::string("stats: ") + e.what();
    return false;
  }
}

/// The generator's counts for one daemon must equal the daemon's.
void cross_check(const ModeCounts& gen, const DaemonStats& d, RunResult& r) {
  long hits = 0;
  long requests = 0;
  for (const auto& [mode, c] : gen) {
    hits += c.hits;
    requests += c.requests;
    const auto it = d.modes.find(mode);
    const ModeCount got = it == d.modes.end() ? ModeCount{} : it->second;
    if (got.requests != c.requests || got.hits != c.hits) {
      r.fail("stats cross-check: " + mode + " daemon " +
             std::to_string(got.requests) + "/" + std::to_string(got.hits) +
             " vs generator " + std::to_string(c.requests) + "/" +
             std::to_string(c.hits) + " requests/hits");
    }
  }
  if (d.hits != hits || d.misses != requests - hits || d.analyses != d.misses) {
    r.fail("stats cross-check: cache hits/misses " + std::to_string(d.hits) +
           "/" + std::to_string(d.misses) + " vs generator " +
           std::to_string(hits) + "/" + std::to_string(requests - hits));
  }
}

std::string socket_path(const Options& opts, int n) {
  return opts.work_dir + "/s" + std::to_string(getpid()) + "-" +
         std::to_string(n) + ".sock";
}

// ------------------------------------------------------------- rounds --

/// What one round measured: a fresh daemon, the cold pass, the warm passes.
struct Round {
  double startup_s = 0;
  double cold_pass_s = 0;
  double warm_wall_s = 0;
  /// The daemon's own mean time per warm element (key, cache lookup,
  /// envelope), from its `stats` before and after the warm passes: overall
  /// and per mode.
  double warm_service_s = 0;
  std::map<std::string, double> warm_mode_us;
  double peak_rss_mb = 0;
  DaemonStats stats;  ///< At the end of the round.
  ModeCounts cold;    ///< Generator's per-mode elements and hits.
  ModeCounts warm;
};

Round socket_round(const Options& opts, const Stream& s, int socket_no,
                   Verifier& v, Latencies& lat, RunResult& r) {
  Round out;
  Daemon d(opts.bsr, socket_path(opts, socket_no));
  out.startup_s = d.startup_s();
  if (!d.ready()) {
    r.fail("daemon: " + d.error());
    return out;
  }
  std::vector<char> done(s.universe.size(), 0);
  std::vector<Reply> replies;
  out.cold_pass_s = closed_loop(d.socket(), s.pass, done, replies);
  out.cold = v.check(s.pass, replies, r, lat);
  DaemonStats cold;
  std::string why;
  bool stats_ok = fetch_stats(d.socket(), cold, why);
  out.warm_wall_s = closed_loop(d.socket(), s.warm, done, replies);
  out.warm = v.check(s.warm, replies, r, lat);
  out.peak_rss_mb = pid_peak_rss_mb(d.pid());
  stats_ok = stats_ok && fetch_stats(d.socket(), out.stats, why);
  d.stop();
  if (!stats_ok) {
    r.fail(why);
    return out;
  }
  ModeCounts all = out.cold;
  add_counts(all, out.warm);
  cross_check(all, out.stats, r);
  long us = 0;
  long n = 0;
  for (const auto& [mode, c] : out.warm) {
    const long mode_us = out.stats.total_us[mode] - cold.total_us[mode];
    const long mode_n =
        out.stats.modes[mode].requests - cold.modes[mode].requests;
    if (mode_n > 0) {
      out.warm_mode_us[mode] =
          static_cast<double>(mode_us) / static_cast<double>(mode_n);
    }
    us += mode_us;
    n += mode_n;
  }
  out.warm_service_s =
      n > 0 ? static_cast<double>(us) * 1e-6 / static_cast<double>(n) : 0;
  return out;
}

// ------------------------------------------------- in-process replay --

struct ReplayStats {
  double seconds = 0;
  long requests = 0;  ///< Cache lookups (batch elements).
  long hits = 0;
  double mean_bytes = 0;
  std::vector<double> hit_s;  ///< handle_line time of all-hit requests.
};

/// Replays one round of the stream through an in-process Service: the cold
/// pass, then the warm passes. With a tracer, each request gets a
/// Json::parse span and a Service::handle_line span renamed to [hit] or
/// [miss].
ReplayStats replay(const Stream& s,
                   const std::vector<ana::ProtocolSpec>* registry) {
  bsr::serve::ServiceOptions so;
  so.registry = registry;
  bsr::serve::Service svc(so);
  Tracer* t = current_tracer();
  ReplayStats st;
  double bytes = 0;
  long replies = 0;
  const Clock::time_point t0 = Clock::now();
  long id = 0;
  for (const std::vector<Item>* items : {&s.pass, &s.warm}) {
    for (const Item& it : *items) {
      if (t != nullptr) {
        const ScopedSpan span("Json::parse", id);
        const Json parsed = Json::parse(it.line);
        (void)parsed;
      }
      const int sid = t != nullptr ? t->open("Service::handle_line", id) : -1;
      const Clock::time_point h0 = Clock::now();
      const std::string reply = svc.handle_line(it.line);
      const double hs = seconds_since(h0);
      if (t != nullptr) t->close(sid);
      long hits = 0;
      for (std::size_t p = reply.find(kCachedTrue); p != std::string::npos;
           p = reply.find(kCachedTrue, p + 1)) {
        ++hits;
      }
      const bool all_hit = hits == static_cast<long>(it.keys.size());
      if (t != nullptr) {
        t->rename(sid, all_hit ? "Service::handle_line[hit]"
                               : "Service::handle_line[miss]");
      }
      if (all_hit) st.hit_s.push_back(hs);
      st.requests += static_cast<long>(it.keys.size());
      st.hits += hits;
      bytes += static_cast<double>(reply.size());
      ++replies;
      ++id;
    }
  }
  st.seconds = seconds_since(t0);
  st.mean_bytes = replies > 0 ? bytes / static_cast<double>(replies) : 0;
  return st;
}

/// The plain exploration behind a serve `explore` key (Service's own: alg1,
/// inputs 0 and 1, max_steps 1000), for the sim layers.
void plain_explore_alg1(long k, long crashes, ExploreCounts& out) {
  bsr::sim::ExploreOptions eo;
  eo.max_steps = 1000;
  eo.max_crashes = static_cast<int>(crashes);
  derived_explore(
      "explore.alg1",
      [k] {
        const ScopedSpan f("spec.factory");
        auto sim = std::make_unique<bsr::sim::Sim>(2);
        bsr::core::install_alg1(*sim, static_cast<std::uint64_t>(k), {0, 1});
        return sim;
      },
      eo, out);
}

/// Decomposition of the universe's misses: each spec a lint key touches,
/// once, through the tiers its modes run, and every explore key.
void decompose_universe(const std::vector<Key>& u,
                        const std::vector<ana::ProtocolSpec>& reg,
                        LayerCounts& counts) {
  std::vector<std::string> every;
  for (const ana::ProtocolSpec* s : sweep_specs(reg)) every.push_back(s->name);
  std::map<std::string, DecomposeItem> by_name;
  for (const Key& key : u) {
    if (key.mode != "lint") continue;
    const bool stat = key.lint_mode != "dynamic";
    const bool dyn = key.lint_mode == "dynamic" || key.lint_mode == "both" ||
                     key.lint_mode == "steps";
    const std::vector<std::string>& names =
        key.protocols.empty() ? every : key.protocols;
    for (const std::string& name : names) {
      DecomposeItem& item =
          by_name.try_emplace(name, DecomposeItem{nullptr, false, false})
              .first->second;
      for (const ana::ProtocolSpec& s : reg) {
        if (s.name == name) item.spec = &s;
      }
      item.static_tier = item.static_tier || stat;
      item.dynamic_tier = item.dynamic_tier || dyn;
    }
  }
  std::vector<DecomposeItem> items;
  for (auto& [name, item] : by_name) {
    if (item.spec != nullptr) items.push_back(item);
  }
  decompose(items, counts);
  for (const Key& key : u) {
    if (key.mode == "explore") plain_explore_alg1(key.k, key.crashes, counts.explore);
  }
}

std::string mode_counts_json(const ModeCounts& m) {
  JsonObject o;
  for (const auto& [mode, c] : m) {
    o.raw(mode, JsonObject().num("requests", c.requests).num("hits", c.hits).render());
  }
  return o.render();
}

}  // namespace

RunResult run_serve_mix(const Options& opts, TraceResult* trace) {
  RunResult r;
  const Stream s = build_stream(opts.seed);
  Verifier v(s.universe);
  Latencies lat;

  // Set-up is a daemon start up to its `listening` banner, once per round.
  std::vector<double> setup;

  Round last;
  if (trace == nullptr) {
    std::vector<double> service;
    std::vector<double> service_us;
    std::vector<double> rss;
    std::vector<double> cold_pass;
    double warm_wall = 0;
    PassLoop loop(opts.seconds, kMinRounds);
    while (loop.more()) {
      last = socket_round(opts, s, loop.passes(), v, lat, r);
      setup.push_back(last.startup_s);
      service.push_back(last.warm_service_s);
      service_us.push_back(last.warm_service_s * 1e6);
      rss.push_back(last.peak_rss_mb);
      cold_pass.push_back(last.cold_pass_s);
      warm_wall += last.warm_wall_s;
      loop.done();
    }
    r.metric("op_s", median(service), "s");
    r.metric("peak_rss_mb", median(rss), "MB");
    const long warm_requests =
        static_cast<long>(s.warm.size()) * static_cast<long>(loop.passes());
    r.detail.num("rounds", static_cast<long>(loop.passes()))
        .raw("warm_service_us", json_numbers(service_us))
        .num("warm_p10_us", percentile(lat.warm_s, 10) * 1e6)
        .num("warm_p50_us", percentile(lat.warm_s, 50) * 1e6)
        .num("warm_p99_us", percentile(lat.warm_s, 99) * 1e6)
        .num("cold_p50_ms", percentile(lat.cold_s, 50) * 1e3)
        .num("cold_p90_ms", percentile(lat.cold_s, 90) * 1e3)
        .num("rps", warm_wall > 0
                        ? static_cast<double>(warm_requests) / warm_wall
                        : 0)
        .num("warm_samples", static_cast<long>(lat.warm_s.size()))
        .num("cold_samples", static_cast<long>(lat.cold_s.size()))
        .raw("cold_pass_s", json_numbers(cold_pass));
  } else {
    // One socket round (for transport and the daemon's own per-mode
    // timings), then traced in-process replays of a round with their
    // decomposition, against untraced replays for the overhead.
    const std::vector<ana::ProtocolSpec> reg = traced_registry();
    std::vector<Layers> passes;
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    PassLoop loop(opts.seconds, 2);
    while (loop.more()) {
      plain_s.push_back(replay(s, nullptr).seconds);
      Tracer t;
      set_current_tracer(&t);
      if (loop.passes() == 0) {
        last = socket_round(opts, s, 0, v, lat, r);
        setup.push_back(last.startup_s);
      }
      const ReplayStats rep = replay(s, &reg);
      LayerCounts counts;
      decompose_universe(s.universe, reg, counts);
      set_current_tracer(nullptr);
      traced_s.push_back(rep.seconds);
      counts.serve_requests = rep.requests;
      counts.serve_hits = rep.hits;
      counts.serve_evictions = last.stats.evictions;
      counts.serve_transport_us =
          (percentile(lat.warm_s, 50) - percentile(rep.hit_s, 50)) * 1e6;
      counts.serve_mode_us = last.warm_mode_us;
      counts.serve_response_bytes = rep.mean_bytes;
      passes.push_back(compute_layers(t, counts));
      if (loop.passes() == 0) trace->spans = std::move(t);
      ++r.attempted;
      loop.done();
    }
    std::vector<std::string> mismatches;
    trace->layers = merge_passes(passes, mismatches);
    for (const std::string& m : mismatches) r.fail("count differs between passes: " + m);
    trace->untraced_pass_s = median(plain_s);
    trace->traced_pass_s = median(traced_s);
  }
  r.metric("setup_s", median(setup), "s");
  r.detail.raw("setup_samples_s", json_numbers(setup));
  JsonObject mode_us;
  for (const auto& [mode, us] : last.warm_mode_us) mode_us.num(mode, us);
  r.detail.raw("last_round_warm_mode_us", mode_us.render());

  // Every round's counts are the same; the stats cross-check has matched
  // each round's against the daemon's.
  std::vector<std::string> callers;
  for (const CallerRequest& c : caller_requests()) callers.push_back(c.caller);
  const long round_elements = s.elements * (1 + kWarmPasses);
  r.counters.raw("callers", json_strings(callers))
      .num("universe", static_cast<long>(s.universe.size()))
      .num("cache_entries", static_cast<long>(kCacheEntries))
      .num("pass_requests", static_cast<long>(s.pass.size()))
      .num("pass_elements", s.elements)
      .num("warm_passes_per_round", static_cast<long>(kWarmPasses))
      .num("hit_share", 1.0 - static_cast<double>(s.universe.size()) /
                                  static_cast<double>(round_elements))
      .raw("round_cold_pass", mode_counts_json(last.cold))
      .raw("round_warm_passes", mode_counts_json(last.warm))
      .num("round_daemon_misses", last.stats.misses)
      .num("round_daemon_evictions", last.stats.evictions)
      .num("clients", static_cast<long>(kClients))
      .num("daemon_workers", 2L);
  return r;
}

}  // namespace pb
