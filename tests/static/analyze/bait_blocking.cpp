// Bait for the blocking check (tools/analyze/codslint/checks/blocking.py).
//
// Every OS-blocking primitive the CondVar/SimHook funnel exists to replace,
// including one hidden behind a type alias — the reason this check reads
// the AST index instead of grepping — and the raw standard locking family
// (mutex, lock guard, condition variable, their headers) that only
// src/common/sync.hpp may wrap.

#include <chrono>
#include <condition_variable>            // codslint-expect(blocking)
#include <future>
#include <mutex>                         // codslint-expect(blocking)
#include <thread>

namespace bait_blocking {

using Waiter = std::condition_variable;  // codslint-expect(blocking)

struct Worker {
  std::thread worker_;                   // codslint-expect(blocking)
  std::condition_variable cv_;           // codslint-expect(blocking)
  std::future<int> pending_;             // codslint-expect(blocking)
  std::mutex mu_;                        // codslint-expect(blocking)

  void locked() {
    std::lock_guard hold(mu_);           // codslint-expect(blocking)
  }

  void stop() {
    worker_.join();                      // codslint-expect(blocking)
  }

  void nap() {
    std::this_thread::sleep_for(         // codslint-expect(blocking)
        std::chrono::milliseconds(1));
  }

  void wait_aliased() {
    Waiter w;                            // codslint-expect(blocking)
    (void)w;
  }

  // steady_clock arithmetic alone is NOT blocking — the blocking check
  // must stay silent — but the clock check confines steady_clock to
  // common/sync.hpp, so each mention fires there.
  std::chrono::steady_clock::time_point  // codslint-expect(clock)
  deadline() {
    return std::chrono::steady_clock::now() +  // codslint-expect(clock)
           std::chrono::milliseconds(5);
  }
};

}  // namespace bait_blocking
