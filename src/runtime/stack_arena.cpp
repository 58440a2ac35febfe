#include "runtime/stack_arena.hpp"

#include <new>

#include "common/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define CODS_ARENA_MMAP 1
#endif

#if defined(CODS_ARENA_MMAP) && !defined(MAP_NORESERVE)
#define MAP_NORESERVE 0
#endif

namespace cods {

namespace {

std::size_t host_page_bytes() {
#if defined(CODS_ARENA_MMAP)
  const long page = sysconf(_SC_PAGESIZE);
  if (page > 0) return static_cast<std::size_t>(page);
#endif
  return 4096;
}

std::size_t round_up(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

}  // namespace

StackArena::StackArena(std::size_t stack_bytes)
    : page_bytes_(host_page_bytes()),
      stack_bytes_(round_up(std::max<std::size_t>(stack_bytes, page_bytes_),
                            page_bytes_)),
      slot_bytes_(page_bytes_ + stack_bytes_) {}

StackArena::~StackArena() {
  for (Slab& slab : slabs_) {
    if (slab.mapped) {
#if defined(CODS_ARENA_MMAP)
      munmap(slab.base, slab.bytes);
#endif
    } else {
      ::operator delete[](slab.base, std::align_val_t{64});
    }
  }
}

StackArena::Slab& StackArena::grow() {
  Slab slab;
  slab.guarded = static_cast<std::size_t>(slots_) < kGuardedSlots;
  slab.slots = slab.guarded ? kSlotsPerSlab : kSlotsPerPlainSlab;
  slab.bytes = slab.slots * slot_bytes_;
#if defined(CODS_ARENA_MMAP)
  // Guarded slabs start PROT_NONE and get their stack pages unprotected
  // slot by slot; unguarded slabs are read/write up front so carving
  // never splits the mapping (one VMA per slab, however many slots).
  const int prot = slab.guarded ? PROT_NONE : (PROT_READ | PROT_WRITE);
  const int flags =
      MAP_PRIVATE | MAP_ANONYMOUS | (slab.guarded ? 0 : MAP_NORESERVE);
  void* base = mmap(nullptr, slab.bytes, prot, flags, -1, 0);
  if (base != MAP_FAILED) {
    slab.base = static_cast<std::byte*>(base);
    slab.mapped = true;
    slabs_.push_back(slab);
    return slabs_.back();
  }
#endif
  // Fallback: one heap block per would-be slab, no guard protection (the
  // guard page offsets are still skipped so slot layout is identical).
  slab.base = static_cast<std::byte*>(
      ::operator new[](slab.bytes, std::align_val_t{64}));
  slab.mapped = false;
  slab.guarded = false;
  slabs_.push_back(slab);
  return slabs_.back();
}

std::byte* StackArena::acquire() {
  if (!free_.empty()) {
    std::byte* stack = free_.back();
    free_.pop_back();
    return stack;
  }
  if (slabs_.empty() || slabs_.back().carved == slabs_.back().slots) grow();
  Slab& slab = slabs_.back();
  std::byte* slot = slab.base + slab.carved * slot_bytes_;
  std::byte* stack = slot + page_bytes_;  // skip the guard page
#if defined(CODS_ARENA_MMAP)
  if (slab.guarded) {
    CODS_CHECK(mprotect(stack, stack_bytes_, PROT_READ | PROT_WRITE) == 0,
               "stack arena: mprotect failed");
  }
#endif
  ++slab.carved;
  ++slots_;
  return stack;
}

void StackArena::release(std::byte* stack) {
  // The slot stays writable: the next acquire reuses it without another
  // protection change, and its already-resident pages carry over.
  free_.push_back(stack);
}

}  // namespace cods
