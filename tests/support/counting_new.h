// A counting replacement for the global `operator new`, for the test
// binaries that bound allocations.
//
// This header defines the replaceable allocation functions, so include it
// from exactly one translation unit of a binary. Allocations are counted
// only while an AllocationCount is alive; outside one, an allocation pays a
// single relaxed load.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace bsr::test {

inline std::atomic<bool> g_counting{false};
inline std::atomic<long> g_allocations{0};

/// Counts the allocations made, by any thread, while it is alive. Not
/// nestable: each instance restarts the one global count.
class AllocationCount {
 public:
  AllocationCount() noexcept {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationCount() { g_counting.store(false, std::memory_order_relaxed); }
  AllocationCount(const AllocationCount&) = delete;
  AllocationCount& operator=(const AllocationCount&) = delete;

  [[nodiscard]] long count() const noexcept {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

}  // namespace bsr::test

// `operator new` and `operator delete` are kept out of line: once both are
// inlined into a caller, `free` on a pointer from `malloc` under them reads
// as a mismatched pair to -Wmismatched-new-delete (GCC 12, Release builds).
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (bsr::test::g_counting.load(std::memory_order_relaxed)) {
    bsr::test::g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
