// Lock-order registry + annotated Mutex integration tests: inversions are
// detected and name both locks, try-lock takes no ordering edges, and the
// hierarchy dump is deterministic.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>

#include "common/lock_order.hpp"
#include "common/sync.hpp"

namespace cods {
namespace {

/// Cycle reports land here so EXPECT_THROW can observe them instead of
/// the default abort.
[[noreturn]] void throwing_handler(const std::string& description) {
  throw std::runtime_error(description);
}

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = lock_order::enabled();
    lock_order::set_enabled(true);  // release builds default to off
    previous_handler_ = lock_order::set_cycle_handler(&throwing_handler);
    lock_order::reset_edges_for_testing();
  }

  void TearDown() override {
    lock_order::reset_edges_for_testing();
    lock_order::set_cycle_handler(previous_handler_);
    lock_order::set_enabled(was_enabled_);
  }

  bool was_enabled_ = false;
  lock_order::CycleHandler previous_handler_ = nullptr;
};

TEST_F(LockOrderTest, NestedAcquisitionRecordsEdge) {
  Mutex a{"order.a"};
  Mutex b{"order.b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::edge_count(), 1u);
  EXPECT_EQ(lock_order::cycles_reported(), 0u);
  // The same nesting again is already validated: no new edge.
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::edge_count(), 1u);
}

TEST_F(LockOrderTest, InversionDetectedNamingBothLocks) {
  Mutex a{"order.alpha"};
  Mutex b{"order.beta"};
  {
    MutexLock la(a);
    MutexLock lb(b);  // establishes alpha -> beta
  }
  std::string report;
  {
    MutexLock lb(b);
    try {
      MutexLock la(a);  // beta -> alpha closes the cycle
      FAIL() << "inversion not detected";
    } catch (const std::runtime_error& e) {
      report = e.what();
    }
  }
  EXPECT_NE(report.find("order.alpha"), std::string::npos) << report;
  EXPECT_NE(report.find("order.beta"), std::string::npos) << report;
  EXPECT_NE(report.find("lock-order cycle"), std::string::npos) << report;
  EXPECT_EQ(lock_order::cycles_reported(), 1u);
}

TEST_F(LockOrderTest, InversionAcrossThreadsDetected) {
  Mutex a{"xthread.a"};
  Mutex b{"xthread.b"};
  // Another thread establishes a -> b; the graph is process-wide, so this
  // thread's b -> a attempt must still trip even though neither thread
  // ever actually deadlocks.
  std::thread([&] {
    MutexLock la(a);
    MutexLock lb(b);
  }).join();
  MutexLock lb(b);
  EXPECT_THROW({ MutexLock la(a); }, std::runtime_error);
  EXPECT_EQ(lock_order::cycles_reported(), 1u);
}

TEST_F(LockOrderTest, TransitiveCycleDetected) {
  Mutex a{"chain.a"};
  Mutex b{"chain.b"};
  Mutex c{"chain.c"};
  {
    MutexLock la(a);
    MutexLock lb(b);  // a -> b
  }
  {
    MutexLock lb(b);
    MutexLock lc(c);  // b -> c
  }
  MutexLock lc(c);
  EXPECT_THROW({ MutexLock la(a); }, std::runtime_error);  // c -> a
}

TEST_F(LockOrderTest, RecursiveAcquisitionDetected) {
  Mutex a{"recursive.a"};
  MutexLock la(a);
  EXPECT_THROW(a.lock(), std::runtime_error);
  EXPECT_EQ(lock_order::cycles_reported(), 1u);
}

TEST_F(LockOrderTest, TryLockTakesNoEdges) {
  Mutex a{"try.a"};
  Mutex b{"try.b"};
  {
    MutexLock la(a);
    ASSERT_TRUE(b.try_lock());  // out-of-order try-lock is legitimate
    b.unlock();
  }
  EXPECT_EQ(lock_order::edge_count(), 0u);
  // So the reverse blocking order later is not a cycle.
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  EXPECT_EQ(lock_order::cycles_reported(), 0u);
}

TEST_F(LockOrderTest, SharedMutexParticipatesInOrdering) {
  SharedMutex s{"shared.s"};
  Mutex m{"shared.m"};
  {
    ReaderLock ls(s);
    MutexLock lm(m);  // s -> m (shared acquisitions take edges too)
  }
  MutexLock lm(m);
  EXPECT_THROW({ WriterLock ls(s); }, std::runtime_error);
}

TEST_F(LockOrderTest, HierarchyDumpIsSortedAndDeterministic) {
  Mutex a{"dump.a"};
  Mutex b{"dump.b"};
  Mutex c{"dump.c"};
  // Acquire in an order whose insertion sequence differs from the sorted
  // output: b -> c first, then a -> b and a -> c.
  {
    MutexLock lb(b);
    MutexLock lc(c);
  }
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock la(a);
    MutexLock lc(c);
  }
  const std::string expected =
      "dump.a -> dump.b\n"
      "dump.a -> dump.c\n"
      "dump.b -> dump.c\n";
  EXPECT_EQ(lock_order::dump_hierarchy(), expected);
  EXPECT_EQ(lock_order::dump_hierarchy(), expected);  // stable across calls
}

TEST_F(LockOrderTest, DisabledTrackingRecordsNothing) {
  lock_order::set_enabled(false);
  Mutex a{"off.a"};
  Mutex b{"off.b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::edge_count(), 0u);
  // Re-enabling starts from an empty graph: the nesting above was never
  // recorded. Repeating it now records it as a fresh edge. (No reverse
  // acquisition here — TSan's own lock-order detector would flag a
  // *physical* inversion even with our tracking off.)
  lock_order::set_enabled(true);
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::edge_count(), 1u);
  EXPECT_EQ(lock_order::cycles_reported(), 0u);
}

int g_counted_cycles = 0;
void counting_handler(const std::string&) { ++g_counted_cycles; }

TEST_F(LockOrderTest, NonAbortingHandlerLetsExecutionContinue) {
  // A handler that merely records (a logging deployment) must not stop
  // the acquiring thread: the inversion is reported, the offending edge
  // is left out of the graph, and the acquisition goes on. The registry
  // hooks are driven directly on two registered ids, so no real mutex
  // pair is ever taken in both orders (a real inversion would trip
  // ThreadSanitizer's own deadlock detector).
  lock_order::set_cycle_handler(&counting_handler);
  g_counted_cycles = 0;
  const std::size_t before = lock_order::cycles_reported();
  const lock_order::LockId a = lock_order::register_lock("order.cont.a");
  const lock_order::LockId b = lock_order::register_lock("order.cont.b");
  lock_order::on_acquire(a);
  lock_order::on_acquire(b);
  lock_order::on_release(b);
  lock_order::on_release(a);
  lock_order::on_acquire(b);
  lock_order::on_acquire(a);  // inversion: handler fires, execution goes on
  lock_order::on_release(a);
  lock_order::on_release(b);
  EXPECT_EQ(g_counted_cycles, 1);
  EXPECT_EQ(lock_order::cycles_reported(), before + 1);
  EXPECT_EQ(lock_order::edge_count(), 1u);  // the cycle edge is not kept
}

}  // namespace
}  // namespace cods
