// Mailbox contention tests: many producers and consumers on one
// MailboxPool cell driven by real threads, exercising the pool's shared
// Mutex and per-cell CondVar under load (TSan CI subset).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "runtime/mailbox.hpp"

namespace cods {
namespace {

/// Queues `value` as the payload of a (src, tag) message on cell 0.
void push_value(MailboxPool& box, i32 src, i64 tag, int value) {
  box.push(0, src, tag, std::as_bytes(std::span<const int>(&value, 1)));
}

int value_of(const Message& m) {
  int value = 0;
  std::memcpy(&value, m.payload.data(), sizeof(int));
  return value;
}

TEST(MailboxContention, ManyProducersManyConsumersDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  MailboxPool box(1);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        push_value(box, p, 1, p * kPerProducer + i);
      }
    });
  }

  std::atomic<int> consumed{0};
  std::vector<std::set<int>> seen(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      while (true) {
        const int n = consumed.fetch_add(1);
        if (n >= kProducers * kPerProducer) break;
        const Message m =
            box.pop(0, kAnySource, 1, std::chrono::seconds(30));
        seen[c].insert(value_of(m));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  // Every message delivered exactly once across all consumers.
  std::set<int> all;
  size_t total = 0;
  for (const auto& s : seen) {
    total += s.size();
    all.insert(s.begin(), s.end());
  }
  EXPECT_EQ(total, static_cast<size_t>(kProducers * kPerProducer));
  EXPECT_EQ(all.size(), static_cast<size_t>(kProducers * kPerProducer));
  EXPECT_EQ(box.size(0), 0u);
}

TEST(MailboxContention, SelectiveMatchingUnderLoadIsFifoPerSource) {
  MailboxPool box(1);
  constexpr int kPerSource = 300;
  std::vector<std::thread> producers;
  for (int src = 0; src < 3; ++src) {
    producers.emplace_back([&box, src] {
      for (int i = 0; i < kPerSource; ++i) {
        push_value(box, src, 7, i);
      }
    });
  }

  // One consumer per source: matched pops must preserve per-source FIFO
  // even while other sources' messages interleave in the queue.
  std::vector<std::thread> consumers;
  for (int src = 0; src < 3; ++src) {
    consumers.emplace_back([&box, src] {
      for (int i = 0; i < kPerSource; ++i) {
        const Message m = box.pop(0, src, 7, std::chrono::seconds(30));
        EXPECT_EQ(m.src_global, src);
        EXPECT_EQ(value_of(m), i);
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(box.size(0), 0u);
}

TEST(MailboxContention, ConcurrentTryPopDrainsExactlyOnce) {
  MailboxPool box(1);
  constexpr int kMessages = 1000;
  std::atomic<int> delivered{0};

  std::thread producer([&] {
    for (int i = 0; i < kMessages; ++i) push_value(box, 0, 3, i);
  });
  std::thread poller([&] {
    while (delivered.load() < kMessages) {
      if (box.try_pop(0, kAnySource, 3).has_value()) delivered.fetch_add(1);
    }
  });
  std::thread blocker([&] {
    while (delivered.load() < kMessages) {
      const auto got = box.try_pop(0, kAnySource, 3);
      if (got.has_value()) {
        delivered.fetch_add(1);
      } else {
        std::this_thread::yield();
      }
    }
  });
  producer.join();
  poller.join();
  blocker.join();
  EXPECT_EQ(delivered.load(), kMessages);
  EXPECT_EQ(box.size(0), 0u);
}

}  // namespace
}  // namespace cods
