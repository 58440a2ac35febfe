// Slab arena of recycled, guard-paged fiber stacks (runtime/sim.hpp,
// docs/SIMULATION.md "Scaling to 1M ranks").
//
// The engine's stacks used to be individual heap blocks; at 10^5..10^6
// ranks the allocator's per-block bookkeeping and the page-table churn of
// alloc/free cycles dominated enactment startup. The arena instead
// reserves large PROT_NONE slabs up front and carves fixed slots out of
// them on demand:
//
//   [guard page][stack pages][guard page][stack pages]...
//
// Only the stack pages of a carved slot are made readable/writable;
// slots never handed out stay PROT_NONE, and released slots go onto a
// free list for the next fiber, so the number of carved slots — and the
// committed address space — tracks peak fiber *co-residency*, not the
// rank count. Pages commit lazily on first touch (plain demand paging),
// so a rank that never grows past one page of stack costs one resident
// page. The leading guard page turns a stack overflow (stacks grow down)
// into a fault instead of a silent write into the neighbouring fiber.
//
// Guard pages are not free: each carved slot splits its slab's mapping
// into a PROT_NONE/PROT_READ|WRITE pair, i.e. two kernel VMAs, and Linux
// caps a process at vm.max_map_count (~65k) mappings. A collective that
// parks every rank at once can drive co-residency to the full rank
// count, so past kGuardedSlots carved slots the arena switches to plain
// MAP_NORESERVE read/write slabs — one VMA per slab regardless of slot
// count. The first tranche of fibers (which catches overflow bugs in
// development-sized runs) keeps hardware guards; the million-rank tail
// trades them for a bounded mapping budget.
//
// When mmap is unavailable the arena degrades to plain heap blocks with
// no guard pages — same interface, weaker diagnostics.
//
// Single-threaded, like the engine that owns it.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace cods {

class StackArena {
 public:
  /// `stack_bytes` is rounded up to whole pages.
  explicit StackArena(std::size_t stack_bytes);
  ~StackArena();
  StackArena(const StackArena&) = delete;
  StackArena& operator=(const StackArena&) = delete;

  /// Usable bytes per slot after page rounding.
  std::size_t stack_bytes() const { return stack_bytes_; }

  /// Returns the lowest usable address of a stack slot (the guard page
  /// sits immediately below it).
  std::byte* acquire();

  /// Returns a slot obtained from acquire() to the free list.
  void release(std::byte* stack);

  /// Distinct slots ever carved == peak number of co-resident stacks.
  i32 slots() const { return slots_; }

  /// Bytes of stack made writable (carved slots x stack_bytes). Resident
  /// memory is bounded by this but usually far lower: pages commit on
  /// first touch.
  u64 committed_bytes() const {
    return static_cast<u64>(slots_) * stack_bytes_;
  }

 private:
  struct Slab {
    std::byte* base = nullptr;
    std::size_t bytes = 0;   ///< reserved extent
    std::size_t carved = 0;  ///< slots carved from this slab so far
    std::size_t slots = 0;   ///< slot capacity of this slab
    bool mapped = false;     ///< mmap slab vs heap fallback
    bool guarded = false;    ///< PROT_NONE slab, mprotect per carve
  };

  /// Slots per guarded mmap slab: big enough to amortize the map call,
  /// small enough that a low-co-residency run reserves little address
  /// space.
  static constexpr std::size_t kSlotsPerSlab = 64;
  /// Slots per unguarded slab: far fewer map calls (and VMAs) on the
  /// million-fiber path; MAP_NORESERVE keeps the reservation lazy.
  static constexpr std::size_t kSlotsPerPlainSlab = 1024;
  /// Carved-slot threshold where new slabs stop carrying per-slot guard
  /// pages. 2048 guarded slots cost <= 4096 VMAs, well under the kernel
  /// default map cap, while covering every development-sized run.
  static constexpr std::size_t kGuardedSlots = 2048;

  Slab& grow();

  std::size_t page_bytes_;
  std::size_t stack_bytes_;  ///< page-rounded usable bytes
  std::size_t slot_bytes_;   ///< guard page + stack
  std::vector<Slab> slabs_;
  std::vector<std::byte*> free_;
  i32 slots_ = 0;
};

}  // namespace cods
