#include "sim/tt.h"

namespace bsr::sim {

namespace {

// 0 marks an empty slot; remap a (vanishingly unlikely) zero hash.
std::uint64_t nonzero(std::uint64_t h) {
  return h == 0 ? 0x9e3779b97f4a7c15ULL : h;
}

}  // namespace

TranspositionTable::TranspositionTable(std::size_t bytes) {
  // Doubles while twice the slots still fit; dividing `bytes` instead of
  // multiplying `slots` keeps a huge request from wrapping to an endless
  // loop, so it reaches the allocation and fails there.
  std::size_t slots = std::size_t{1} << 10;
  while (slots <= bytes / (2 * kSlotBytes)) slots *= 2;
  slots_ = std::vector<Slot>(slots);
  mask_ = static_cast<std::uint64_t>(slots) - 1;
}

TranspositionTable::Claim TranspositionTable::claim(std::uint64_t h) noexcept {
  h = nonzero(h);
  probes_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t i = h & mask_;
  for (int probe = 0; probe < kProbeWindow; ++probe, i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    std::uint64_t cur = s.hash.load(std::memory_order_relaxed);
    if (cur == 0) {
      if (s.hash.compare_exchange_strong(cur, h, std::memory_order_relaxed)) {
        stores_.fetch_add(1, std::memory_order_relaxed);
        return Claim{true, kPending};
      }
      // cur now holds the racing writer's value; fall through to compare.
    }
    if (cur == h) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return Claim{false, s.count.load(std::memory_order_relaxed)};
    }
  }
  drops_.fetch_add(1, std::memory_order_relaxed);
  return Claim{true, kPending};
}

void TranspositionTable::publish(std::uint64_t h, long count) noexcept {
  h = nonzero(h);
  std::uint64_t i = h & mask_;
  for (int probe = 0; probe < kProbeWindow; ++probe, i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    const std::uint64_t cur = s.hash.load(std::memory_order_relaxed);
    if (cur == h) {
      s.count.store(count, std::memory_order_relaxed);
      return;
    }
    if (cur == 0) return;  // h would sit here: its insert was dropped
  }
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
