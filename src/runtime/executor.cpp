#include "runtime/executor.hpp"

#include <algorithm>

namespace cods {

namespace {

/// Lock-free max for the stats peaks.
void raise_max(std::atomic<i32>& maximum, i32 value) {
  i32 current = maximum.load(std::memory_order_relaxed);
  while (current < value &&
         !maximum.compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

i32 PoolExecutor::default_pool_size() {
  // codslint-allow(blocking): hardware_concurrency is a non-blocking query
  return static_cast<i32>(std::max(2u, std::thread::hardware_concurrency()));
}

PoolExecutor::PoolExecutor(i32 pool_size)
    : pool_size_(pool_size > 0 ? pool_size : default_pool_size()) {}

PoolExecutor::~PoolExecutor() {
  // run() joins its own pool; this only covers a run() that threw.
  // codslint-allow(blocking): pool teardown; unreachable under kSimulate
  std::vector<std::thread> leftover;
  {
    MutexLock lock(state_mutex_);
    shutdown_ = true;
    leftover.swap(threads_);
  }
  state_cv_.notify_all();
  // codslint-allow(blocking): joining own pool threads at destruction
  for (std::thread& t : leftover) t.join();
}

void PoolExecutor::run(i32 ntasks, const std::function<void(i32)>& body) {
  CODS_REQUIRE(ntasks >= 1, "need at least one task");
  CODS_REQUIRE(body_ == nullptr, "executor run() is not reentrant");
  ntasks_ = ntasks;
  body_ = &body;
  claimed_.store(0);
  completed_.store(0);
  {
    MutexLock lock(state_mutex_);
    shutdown_ = false;
    escaped_ = nullptr;
    const i32 initial = std::min(pool_size_, ntasks);
    for (i32 s = 0; s < initial; ++s) spawn_locked();
  }

  // Wait for every task body to return. The main thread never executes
  // tasks itself, so its own blocking here must not (and cannot) recurse
  // into the observer — no observer is installed on it.
  {
    MutexLock lock(state_mutex_);
    while (completed_.load() < ntasks_) state_cv_.wait(lock);
  }

  // Drain the pool: wake parked spares so they see shutdown, join all.
  // codslint-allow(blocking): the pool-backed exec mode owns these threads
  std::vector<std::thread> pool;
  {
    MutexLock lock(state_mutex_);
    shutdown_ = true;
    pool.swap(threads_);
  }
  state_cv_.notify_all();
  // codslint-allow(blocking): joining own pool after completion signal
  for (std::thread& t : pool) t.join();

  stats_.pool_size = pool_size_;
  stats_.total_spawned = total_spawned_.load();
  stats_.peak_live = peak_live_.load();
  stats_.peak_blocked = peak_blocked_.load();
  stats_.escalations = escalations_.load();
  stats_.spare_reuses = spare_reuses_.load();
  body_ = nullptr;

  std::exception_ptr escaped;
  {
    MutexLock lock(state_mutex_);
    escaped = escaped_;
  }
  if (escaped) std::rethrow_exception(escaped);
}

void PoolExecutor::spawn_locked() {
  runnable_.fetch_add(1);
  const i32 live = live_.fetch_add(1) + 1;
  raise_max(peak_live_, live);
  total_spawned_.fetch_add(1);
  threads_.emplace_back([this] { worker_loop(); });
}

void PoolExecutor::run_task(i32 task) {
  blocking::Observer* previous = blocking::install(this);
  try {
    (*body_)(task);
  } catch (...) {
    // Runtime's rank wrapper contains its own exceptions; anything that
    // still escapes is preserved and rethrown from run().
    MutexLock lock(state_mutex_);
    if (!escaped_) escaped_ = std::current_exception();
  }
  blocking::install(previous);
  if (completed_.fetch_add(1) + 1 == ntasks_) {
    MutexLock lock(state_mutex_);
    state_cv_.notify_all();
  }
}

void PoolExecutor::worker_loop() {
  for (;;) {
    // Every claimed task owns a thread until completion, so once the
    // cursor passes the last task this worker is no longer needed.
    const i32 task = claimed_.fetch_add(1);
    if (task >= ntasks_) break;
    run_task(task);
    // A woken blocker runs as a temporary surplus; trim at the safe
    // point between tasks.
    if (runnable_.load() > pool_size_ && !park_or_retire()) return;
  }
  runnable_.fetch_sub(1);
  live_.fetch_sub(1);
}

bool PoolExecutor::park_or_retire() {
  MutexLock lock(state_mutex_);
  if (runnable_.load() <= pool_size_) return true;  // surplus already gone
  runnable_.fetch_sub(1);
  // Closing the race with a concurrent on_block() that counted this
  // thread as runnable: if the pool just dropped below its cap while
  // unclaimed work remains, take the slot straight back.
  if (claimed_.load() < ntasks_ && runnable_.load() < pool_size_) {
    runnable_.fetch_add(1);
    return true;
  }
  if (shutdown_ || spares_parked_ >= pool_size_) {
    live_.fetch_sub(1);
    return false;
  }
  ++spares_parked_;
  while (!shutdown_ && spare_wakeups_ == 0) state_cv_.wait(lock);
  --spares_parked_;
  if (shutdown_) {
    live_.fetch_sub(1);
    return false;
  }
  --spare_wakeups_;
  return true;  // escalate() already re-granted the execution slot
}

void PoolExecutor::on_block() {
  const i32 blocked = blocked_.fetch_add(1) + 1;
  raise_max(peak_blocked_, blocked);
  const i32 runnable = runnable_.fetch_sub(1) - 1;
  if (claimed_.load() < ntasks_ && runnable < pool_size_) escalate();
}

void PoolExecutor::on_unblock() {
  blocked_.fetch_sub(1);
  runnable_.fetch_add(1);
}

void PoolExecutor::escalate() {
  bool notify = false;
  {
    MutexLock lock(state_mutex_);
    if (shutdown_) return;
    escalations_.fetch_add(1);
    if (spares_parked_ > spare_wakeups_) {
      ++spare_wakeups_;
      runnable_.fetch_add(1);  // granted to the spare being woken
      spare_reuses_.fetch_add(1);
      notify = true;
    } else {
      spawn_locked();
    }
  }
  if (notify) state_cv_.notify_all();
}

}  // namespace cods
