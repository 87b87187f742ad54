#include "sim/tt.h"

namespace bsr::sim {

TranspositionTable::TranspositionTable(std::size_t bytes) {
  // Doubles while twice the slots still fit; dividing `bytes` instead of
  // multiplying `slots` keeps a huge request from wrapping to an endless
  // loop, so it reaches the allocation and fails there.
  std::size_t slots = std::size_t{1} << 10;
  while (slots <= bytes / (2 * sizeof(std::uint64_t))) slots *= 2;
  slots_ = std::vector<std::atomic<std::uint64_t>>(slots);
  mask_ = static_cast<std::uint64_t>(slots) - 1;
}

bool TranspositionTable::first_visit(std::uint64_t h) noexcept {
  // 0 marks an empty slot; remap a (vanishingly unlikely) zero hash.
  if (h == 0) h = 0x9e3779b97f4a7c15ULL;
  probes_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t i = h & mask_;
  for (int probe = 0; probe < kProbeWindow; ++probe, i = (i + 1) & mask_) {
    std::uint64_t cur = slots_[i].load(std::memory_order_relaxed);
    if (cur == 0) {
      if (slots_[i].compare_exchange_strong(cur, h,
                                            std::memory_order_relaxed)) {
        stores_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // cur now holds the racing writer's value; fall through to compare.
    }
    if (cur == h) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  drops_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

TranspositionTable::Stats TranspositionTable::stats() const noexcept {
  Stats s;
  s.probes = probes_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.drops = drops_.load(std::memory_order_relaxed);
  s.slots = slots_.size();
  return s;
}

}  // namespace bsr::sim
