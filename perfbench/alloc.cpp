// Global operator new interposed in the benchmark binary only (the library
// is untouched), counting allocations per thread for alloc.per_decision and
// alloc.per_query.

#include <cstdint>
#include <cstdlib>
#include <new>

#include "common.h"

namespace {
thread_local std::uint64_t t_allocations = 0;
}

std::uint64_t perfbench::thread_allocations() { return t_allocations; }

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
