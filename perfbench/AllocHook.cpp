//===- perfbench/AllocHook.cpp - Counting global allocator ----------------===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Linked into perfbench_traced only.  Replaces the global operator new and
// delete with malloc/free plus a per-thread call counter, which Spans.cpp
// reads at span open and close to charge each allocation to the innermost
// open span.  The counter is a plain thread_local, so counting costs one
// TLS increment per allocation and no synchronisation.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <cstdlib>
#include <new>

namespace {
thread_local uint64_t Allocations = 0;
thread_local unsigned Paused = 0;

void *allocate(std::size_t N) {
  if (!Paused)
    ++Allocations;
  return std::malloc(N ? N : 1);
}

void *allocateAligned(std::size_t N, std::align_val_t A) {
  if (!Paused)
    ++Allocations;
  std::size_t Align = static_cast<std::size_t>(A);
  if (Align < sizeof(void *))
    Align = sizeof(void *);
  void *P = nullptr;
  if (posix_memalign(&P, Align, N ? N : 1) != 0)
    return nullptr;
  return P;
}
} // namespace

uint64_t perfbench::threadAllocations() { return Allocations; }
bool perfbench::countsAllocations() { return true; }
perfbench::AllocPause::AllocPause() { ++Paused; }
perfbench::AllocPause::~AllocPause() { --Paused; }

void *operator new(std::size_t N) {
  if (void *P = allocate(N))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) {
  if (void *P = allocate(N))
    return P;
  throw std::bad_alloc();
}
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return allocate(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return allocate(N);
}
void *operator new(std::size_t N, std::align_val_t A) {
  if (void *P = allocateAligned(N, A))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N, std::align_val_t A) {
  if (void *P = allocateAligned(N, A))
    return P;
  throw std::bad_alloc();
}
void *operator new(std::size_t N, std::align_val_t A,
                   const std::nothrow_t &) noexcept {
  return allocateAligned(N, A);
}
void *operator new[](std::size_t N, std::align_val_t A,
                     const std::nothrow_t &) noexcept {
  return allocateAligned(N, A);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}
