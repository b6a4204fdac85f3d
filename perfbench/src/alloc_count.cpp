// Exact heap-allocation count for sim.allocs_per_user_tick: replacing the
// global allocation functions in the benchmark binary counts every
// operator new in the process, library included. Relaxed: the count is a
// sum, exact regardless of thread interleaving.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "report.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

std::uint64_t perfbench::allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}
