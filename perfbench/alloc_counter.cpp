#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

void note(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t size) {
  note(size);
  for (;;) {
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  note(size);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  for (;;) {
    if (void* p = std::aligned_alloc(a, rounded)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void alloc_counting_start() {
  g_calls.store(0, std::memory_order_relaxed);
  g_bytes.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
}

AllocTotals alloc_counting_stop() {
  g_counting.store(false, std::memory_order_seq_cst);
  return {g_calls.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, std::align_val_t a) {
  return perfbench::allocate_aligned(size, a);
}
void* operator new[](std::size_t size, std::align_val_t a) {
  return perfbench::allocate_aligned(size, a);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t a, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate_aligned(size, a);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t a, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate_aligned(size, a);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
