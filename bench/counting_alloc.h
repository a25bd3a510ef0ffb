// Global allocation counter behind the zero-allocation self-checks of
// bench/campaign and bench/fleet_gateway.
//
// This header *defines* the replacement global `operator new`/`delete`, so
// it swaps the allocator for the whole binary and every heap allocation
// funnels through `g_heap_allocations`. Include it from exactly one
// translation unit per binary: a second copy is a duplicate definition.
// The nothrow forms are replaced too, so that no allocation reaches a
// `free` from an allocator other than `malloc` (ASan reports that as an
// alloc-dealloc mismatch, e.g. for `std::stable_sort`'s temporary buffer).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

static std::atomic<std::uint64_t> g_heap_allocations{0};

static void* counted_malloc(std::size_t size) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
