// The runtime's one message plane: a dense pool of per-rank mailbox cells
// with MPI-style (source, tag) matching (docs/SIMULATION.md "Compact
// per-rank state").
//
// Both exec modes use it. One flat vector of cells indexed by global
// rank shares one Mutex; each cell carries its own CondVar as the rank's
// wait channel:
//
//   * A cell holds one message inline (single-producer/single-consumer
//     in the common rendezvous pattern: one in-flight message per rank);
//     payloads up to kInlineBytes live inside the cell, so small control
//     messages — assignments, gather entries, barrier tokens — never
//     touch the heap while queued.
//   * Overflow spills to a lazily-allocated per-cell vector with a head
//     cursor (FIFO scan order: slot first, then spill from the head), so
//     matched receives are FIFO per (source, tag).
//   * Blocking receives wait on the cell's CondVar. Under kPooled that
//     parks the OS thread through blocking::ScopedBlock, so the executor
//     can hand the worker's slot on; under kSimulate CondVar diverts to
//     the installed blocking::SimHook, which parks the fiber on the
//     CondVar's address with a virtual deadline.
//
// An idle rank costs one 112-byte cell, so the plane at 10^6 ranks is
// ~112 MB flat; a mutex, condvar and heap deque per rank would cost ~800
// bytes per rank before the first message.
#pragma once

#include <array>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"

namespace cods {

inline constexpr i32 kAnySource = -1;
inline constexpr i32 kAnyTag = -1;

/// A delivered message. `comm_tag` combines the communicator id and user
/// tag so independent communicators never match each other's traffic.
struct Message {
  i32 src_global = -1;  ///< sender's *global* rank
  i64 comm_tag = 0;
  std::vector<std::byte> payload;
};

/// One mailbox cell per global rank; thread-safe, and the same code in
/// both exec modes.
class MailboxPool {
 public:
  /// Payload bytes stored inside the cell itself.
  static constexpr std::size_t kInlineBytes = 24;

  explicit MailboxPool(i32 nranks)
      : cells_(static_cast<std::size_t>(nranks)) {}

  /// Delivers a payload to `dst`'s cell and wakes its waiting receiver.
  void push(i32 dst, i32 src_global, i64 comm_tag,
            std::span<const std::byte> payload) {
    Stored s = store(src_global, comm_tag, payload);
    CondVar* cv = nullptr;
    {
      MutexLock lock(mutex_);
      Cell& c = cell(dst);
      cv = &c.cv;
      if (!c.full) {
        c.slot = std::move(s);
        c.full = true;
      } else {
        if (c.spill == nullptr) c.spill = std::make_unique<Spill>();
        c.spill->q.push_back(std::move(s));
      }
    }
    cv->notify_all();
  }

  /// Blocks until a message with the given comm_tag (and source, unless
  /// kAnySource) is queued for `rank`, removes and returns it. FIFO per
  /// match. Throws after `timeout` so one failed rank cannot deadlock the
  /// run.
  Message pop(i32 rank, i32 src_global, i64 comm_tag,
              std::chrono::seconds timeout) {
    const WaitDeadline deadline(timeout);
    std::optional<Stored> s;
    {
      MutexLock lock(mutex_);
      Cell& c = cell(rank);
      while (!(s = take_locked(c, src_global, comm_tag))) {
        if (c.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
          fail("recv timed out waiting for a matching message");
        }
      }
    }
    return to_message(std::move(*s));
  }

  /// Non-blocking variant of pop: returns the first matching message, or
  /// nullopt when none is queued.
  std::optional<Message> try_pop(i32 rank, i32 src_global, i64 comm_tag) {
    std::optional<Stored> s;
    {
      MutexLock lock(mutex_);
      s = take_locked(cell(rank), src_global, comm_tag);
    }
    if (!s) return std::nullopt;
    return to_message(std::move(*s));
  }

  /// Queued messages for `rank` (diagnostics).
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

  /// 112 bytes: Stored slot + occupancy flag + spill pointer + the
  /// rank's wait channel.
  struct Cell {
    Stored slot;
    bool full = false;
    std::unique_ptr<Spill> spill;
    CondVar cv;
  };

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

  /// Removes the first queued match. The caller converts it to a Message
  /// after unlocking, so the payload copy runs outside the shared mutex.
  std::optional<Stored> take_locked(Cell& c, i32 src_global, i64 comm_tag)
      CODS_REQUIRES(mutex_) {
    if (!c.full) return std::nullopt;  // spill is only fed while full
    if (matches(c.slot, src_global, comm_tag)) {
      Stored m = std::move(c.slot);
      refill(c);
      return m;
    }
    if (c.spill == nullptr) return std::nullopt;
    Spill& spill = *c.spill;
    for (std::size_t i = spill.head; i < spill.q.size(); ++i) {
      if (!matches(spill.q[i], src_global, comm_tag)) continue;
      Stored m = std::move(spill.q[i]);
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

  mutable Mutex mutex_{"runtime.mailbox"};
  std::vector<Cell> cells_ CODS_GUARDED_BY(mutex_);
};

}  // namespace cods
