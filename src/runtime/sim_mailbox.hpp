// Dense simulate-mode mailbox plane (docs/SIMULATION.md "Scaling to 1M
// ranks").
//
// Under ExecMode::kSimulate every rank is a fiber on one OS thread, so
// kPooled's per-rank Mailbox — a named Mutex, a CondVar and an
// eagerly-allocated std::deque<Message> per rank, ~800 bytes before the
// first message — buys nothing: there is no real contention to shard.
// This pool replaces the whole plane with one flat vector of 64-byte
// cells indexed by global rank, one shared Mutex and per-cell virtual
// wait channels:
//
//   * A cell holds one message inline (single-producer/single-consumer
//     in the common rendezvous pattern: one in-flight message per rank);
//     payloads up to kInlineBytes live inside the cell, so small control
//     messages — assignments, gather entries, barrier tokens — never
//     touch the heap while queued.
//   * Overflow spills to a lazily-allocated per-cell vector with a head
//     cursor (FIFO scan order: slot first, then spill from the head),
//     preserving Mailbox's FIFO-per-match semantics exactly.
//   * Blocking receives park the fiber on the cell's address via the
//     installed blocking::SimHook — the same virtual-deadline path
//     CondVar would take, minus a CondVar per rank. The pool is
//     simulate-only by construction and checks the hook is installed.
//
// An idle rank therefore costs one cache line, and the whole plane at
// 10^6 ranks is ~64 MB flat instead of ~1 GB of scattered nodes.
#pragma once

#include <array>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/blocking.hpp"
#include "common/error.hpp"
#include "common/sync.hpp"
#include "runtime/mailbox.hpp"

namespace cods {

class SimMailboxPool {
 public:
  /// Payload bytes stored inside the cell itself.
  static constexpr std::size_t kInlineBytes = 24;

  explicit SimMailboxPool(i32 nranks)
      : cells_(static_cast<std::size_t>(nranks)) {}

  /// Delivers a payload to `dst`'s cell and wakes its waiting fiber.
  void push(i32 dst, i32 src_global, i64 comm_tag,
            std::span<const std::byte> payload) {
    const void* channel;
    {
      MutexLock lock(mutex_);
      Cell& c = cell(dst);
      channel = &c;
      Stored s = store(src_global, comm_tag, payload);
      if (!c.full) {
        c.slot = std::move(s);
        c.full = true;
      } else {
        if (c.spill == nullptr) c.spill = std::make_unique<Spill>();
        c.spill->q.push_back(std::move(s));
      }
    }
    hook()->notify(channel, /*all=*/true);
  }

  /// Blocking matched receive with Mailbox::pop's exact semantics: FIFO
  /// per (source, comm_tag) match, virtual-deadline timeout with the
  /// same error text.
  Message pop(i32 rank, i32 src_global, i64 comm_tag,
              std::chrono::seconds timeout) {
    blocking::SimHook* sim = hook();
    const double seconds = std::chrono::duration<double>(timeout).count();
    MutexLock lock(mutex_);
    Cell& c = cell(rank);
    for (;;) {
      if (auto m = match_locked(c, src_global, comm_tag)) return std::move(*m);
      // Park on the cell's address — the per-rank wake channel push()
      // notifies. The hook releases and re-acquires mutex_ around the
      // suspension, exactly as CondVar::wait_until would.
      if (sim->wait_until(&c, mutex_, seconds)) {
        fail("recv timed out waiting for a matching message");
      }
    }
  }

  /// Non-blocking matched receive (Mailbox::try_pop counterpart).
  std::optional<Message> try_pop(i32 rank, i32 src_global, i64 comm_tag) {
    MutexLock lock(mutex_);
    return match_locked(cell(rank), src_global, comm_tag);
  }

  /// Queued messages for `rank` (diagnostics, like Mailbox::size).
  std::size_t size(i32 rank) const {
    MutexLock lock(mutex_);
    const Cell& c = cells_[static_cast<std::size_t>(rank)];
    std::size_t n = c.full ? 1 : 0;
    if (c.spill != nullptr) n += c.spill->q.size() - c.spill->head;
    return n;
  }

 private:
  /// One queued message, 48 bytes: small payloads inline, large ones in
  /// a heap block (no std::vector header per queued message).
  struct Stored {
    i64 comm_tag = 0;
    i32 src_global = -1;
    u32 size = 0;
    std::array<std::byte, kInlineBytes> inline_bytes;
    std::unique_ptr<std::byte[]> heap;

    const std::byte* data() const {
      return heap != nullptr ? heap.get() : inline_bytes.data();
    }
  };

  struct Spill {
    std::vector<Stored> q;
    std::size_t head = 0;  ///< first live entry (front pops advance it)
  };

  /// 64 bytes: Stored slot + occupancy flag + spill pointer.
  struct Cell {
    Stored slot;
    bool full = false;
    std::unique_ptr<Spill> spill;
  };

  static blocking::SimHook* hook() {
    blocking::SimHook* sim = blocking::sim_hook();
    CODS_CHECK(sim != nullptr,
               "sim mailbox pool used outside ExecMode::kSimulate");
    return sim;
  }

  Cell& cell(i32 rank) CODS_REQUIRES(mutex_) {
    CODS_REQUIRE(rank >= 0 && rank < static_cast<i32>(cells_.size()),
                 "global rank out of range");
    return cells_[static_cast<std::size_t>(rank)];
  }

  static Stored store(i32 src_global, i64 comm_tag,
                      std::span<const std::byte> payload) {
    Stored s;
    s.comm_tag = comm_tag;
    s.src_global = src_global;
    s.size = static_cast<u32>(payload.size());
    std::byte* dst = s.inline_bytes.data();
    if (payload.size() > kInlineBytes) {
      s.heap = std::make_unique<std::byte[]>(payload.size());
      dst = s.heap.get();
    }
    if (!payload.empty()) std::memcpy(dst, payload.data(), payload.size());
    return s;
  }

  static Message to_message(Stored&& s) {
    Message m;
    m.src_global = s.src_global;
    m.comm_tag = s.comm_tag;
    m.payload.assign(s.data(), s.data() + s.size);
    return m;
  }

  static bool matches(const Stored& s, i32 src_global, i64 comm_tag) {
    return s.comm_tag == comm_tag &&
           (src_global == kAnySource || s.src_global == src_global);
  }

  std::optional<Message> match_locked(Cell& c, i32 src_global, i64 comm_tag)
      CODS_REQUIRES(mutex_) {
    if (!c.full) return std::nullopt;  // spill is only fed while full
    if (matches(c.slot, src_global, comm_tag)) {
      Message m = to_message(std::move(c.slot));
      refill(c);
      return m;
    }
    if (c.spill == nullptr) return std::nullopt;
    Spill& spill = *c.spill;
    for (std::size_t i = spill.head; i < spill.q.size(); ++i) {
      if (!matches(spill.q[i], src_global, comm_tag)) continue;
      Message m = to_message(std::move(spill.q[i]));
      if (i == spill.head) {
        advance_head(spill);
      } else {
        spill.q.erase(spill.q.begin() + static_cast<std::ptrdiff_t>(i));
      }
      return m;
    }
    return std::nullopt;
  }

  void refill(Cell& c) CODS_REQUIRES(mutex_) {
    if (c.spill != nullptr && c.spill->head < c.spill->q.size()) {
      c.slot = std::move(c.spill->q[c.spill->head]);
      advance_head(*c.spill);
    } else {
      c.full = false;
    }
  }

  static void advance_head(Spill& spill) {
    ++spill.head;
    if (spill.head >= spill.q.size()) {
      spill.q.clear();
      spill.head = 0;
    }
  }

  mutable Mutex mutex_{"runtime.sim_mail"};
  std::vector<Cell> cells_ CODS_GUARDED_BY(mutex_);
};

}  // namespace cods
