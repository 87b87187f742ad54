#include "sim/zobrist.h"

#include <deque>

#include "util/errors.h"

namespace bsr::sim::zobrist {

std::uint64_t value_hash(const Value& v) noexcept {
  return mix(static_cast<std::uint64_t>(v.hash()));
}

std::uint64_t message_hash(const std::string& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return mix(h);
}

std::uint64_t full_hash(const Sim& sim) {
  usage_check(sim.checkpointing(),
              "zobrist::full_hash: checkpointing must be enabled (the result "
              "log is part of the hashed state)");
  std::uint64_t h = 0;
  for (int r = 0; r < sim.num_registers(); ++r) {
    h ^= reg_component(r, sim.register_info(r).value);
  }
  const int n = sim.n();
  for (Pid p = 0; p < n; ++p) {
    const auto& log = sim.result_log(p);
    for (std::size_t j = 0; j < log.size(); ++j) {
      h ^= hist_component(p, static_cast<long>(j), log[j]);
    }
    if (sim.crashed(p)) h ^= crash_component(p);
  }
  for (Pid from = 0; from < n; ++from) {
    for (Pid to = 0; to < n; ++to) {
      const std::deque<Value>& q = sim.channel(from, to);
      const long base = sim.channel_delivered(from, to);
      for (std::size_t i = 0; i < q.size(); ++i) {
        h ^= chan_component(from, to, base + static_cast<long>(i), q[i]);
      }
    }
  }
  for (const ModelEvent& e : sim.model_violations()) h ^= viol_component(e);
  return h;
}

}  // namespace bsr::sim::zobrist
