// Heap meter: replaces the global allocation functions with versions that
// count live heap bytes (as malloc_usable_size reports them) and their high
// water mark. The simulation allocates the same sizes in the same order for
// a given seed, so a scenario's heap peak is as repeatable as its outcome,
// unlike RSS, which also carries allocator caching and whatever earlier
// scenarios left mapped.
//
// Only the plain forms are replaced; the library's array and nothrow forms
// forward to them, and the aligned forms pair their own allocation and
// release, so those stay uncounted on both sides.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "ledger.h"

namespace pds::ledger {
namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

}  // namespace

std::size_t heap_live_bytes() { return g_live.load(std::memory_order_relaxed); }

std::size_t heap_peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

void reset_heap_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace pds::ledger

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const std::size_t n = malloc_usable_size(p);
  const std::size_t live =
      pds::ledger::g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::size_t peak = pds::ledger::g_peak.load(std::memory_order_relaxed);
  while (live > peak && !pds::ledger::g_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  pds::ledger::g_live.fetch_sub(malloc_usable_size(p),
                                std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t /*size*/) noexcept {
  ::operator delete(p);
}
