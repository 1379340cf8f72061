#include "alloc_counter.h"

#include <malloc.h>

#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

// Single-threaded benchmark: plain globals, no atomics.
bool g_counting = false;
std::int64_t g_live = 0;
std::int64_t g_peak = 0;
std::uint64_t g_allocations = 0;

void* allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  if (g_counting) {
    g_live += std::int64_t(malloc_usable_size(p));
    if (g_live > g_peak) g_peak = g_live;
    ++g_allocations;
  }
  return p;
}

void release(void* p) {
  if (p == nullptr) return;
  if (g_counting) g_live -= std::int64_t(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

void set_counting(bool on) { g_counting = on; }
std::int64_t live_bytes() { return g_live; }
std::int64_t peak_bytes() { return g_peak; }
void reset_peak() { g_peak = g_live; }
std::uint64_t allocations() { return g_allocations; }

}  // namespace perfbench::alloc

void* operator new(std::size_t size) {
  return perfbench::alloc::allocate(size);
}
void* operator new[](std::size_t size) {
  return perfbench::alloc::allocate(size);
}
void operator delete(void* p) noexcept { perfbench::alloc::release(p); }
void operator delete[](void* p) noexcept { perfbench::alloc::release(p); }
void operator delete(void* p, std::size_t) noexcept {
  perfbench::alloc::release(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::alloc::release(p);
}
