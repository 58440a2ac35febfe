// Blocking-wait observer hook (docs/PERF.md "Enactment scaling").
//
// Every potentially-unbounded blocking wait in src/ funnels through
// CondVar (common/sync.hpp) — mailbox receives, collectives built on
// them, lock-service acquisitions, space waits. A component that
// multiplexes many logical activities over few OS threads (the pool
// executor, runtime/executor.hpp) installs a thread-local
// Observer on its worker threads; CondVar then brackets each wait with
// on_block()/on_unblock(), so the owner learns "this thread is parked"
// and can hand the execution slot to a spare — the tokio/Go
// blocking-thread escalation pattern. With no observer installed (every
// thread outside an executor) the bracket is one thread-local load and a
// branch.
//
// The same funnel carries ExecMode::kSimulate (runtime/sim.hpp): the
// discrete-event engine installs a thread-local SimHook, and CondVar /
// Mutex then *divert* every block, acquisition and notification into the
// engine's event queue instead of parking an OS thread, so transports,
// ledgers and traces run unchanged while ranks execute as cooperative
// fibers. With no hook installed the diversion is, like the observer, a
// single thread-local load and a branch.
#pragma once

namespace cods {
class Mutex;  // common/sync.hpp (which includes this header)
}  // namespace cods

namespace cods::blocking {

/// Receiver of block/unblock notifications for one thread. on_block() is
/// called *before* the thread parks and may run under arbitrary caller
/// locks, so implementations must only touch leaf locks of the hierarchy
/// (docs/CONCURRENCY.md); on_unblock() runs right after the wait returns.
class Observer {
 public:
  virtual ~Observer() = default;
  virtual void on_block() = 0;
  virtual void on_unblock() = 0;
};

/// The observer installed on the current thread (nullptr = none).
Observer* current();

/// Installs `observer` on the current thread and returns the previous one
/// (restore it when the scope ends; installations nest).
Observer* install(Observer* observer);

/// RAII bracket around one blocking wait. Constructed by CondVar before
/// parking; destroyed after the wait returns.
class ScopedBlock {
 public:
  ScopedBlock() : observer_(current()) {
    if (observer_ != nullptr) observer_->on_block();
  }
  ~ScopedBlock() {
    if (observer_ != nullptr) observer_->on_unblock();
  }
  ScopedBlock(const ScopedBlock&) = delete;
  ScopedBlock& operator=(const ScopedBlock&) = delete;

 private:
  Observer* observer_;
};

/// Scheduler-diversion hook for ExecMode::kSimulate. When installed on a
/// thread, CondVar and Mutex (common/sync.hpp) route every blocking
/// operation here instead of touching the native primitives; the
/// discrete-event engine (runtime/sim.hpp) implements the interface by
/// suspending the calling fiber and replaying the wakeup from its virtual
/// event queue. Condition variables are identified by their address
/// (opaque to the hook). Contracts mirror the native primitives:
///
///   lock()        returns holding `mu` (may suspend the fiber).
///   unlock()      called after `mu` was released; wakes lock() waiters.
///   wait()        entered holding `mu`; suspends until notify; returns
///                 holding `mu` again.
///   wait_until()  like wait() with a relative timeout in seconds;
///                 returns true when the (virtual) deadline fired first.
///   notify()      wakes the first (`all` = every) waiter of `cv`.
///
/// wait()/wait_until() throw cods::Error when the engine cancels the
/// fiber to break a discrete-event deadlock (every fiber blocked, no
/// timeout pending); the error unwinds the rank body like any other
/// operation failure.
class SimHook {
 public:
  virtual ~SimHook() = default;
  virtual void lock(Mutex& mu) = 0;
  virtual void unlock(Mutex& mu) = 0;
  virtual void wait(const void* cv, Mutex& mu) = 0;
  virtual bool wait_until(const void* cv, Mutex& mu, double seconds) = 0;
  virtual void notify(const void* cv, bool all) = 0;
};

/// The simulate-mode hook installed on the current thread (nullptr =
/// live execution).
SimHook* sim_hook();

/// Installs `hook` on the current thread and returns the previous one
/// (restore it when the engine's run ends; installations nest).
SimHook* install_sim_hook(SimHook* hook);

}  // namespace cods::blocking
