#include <gtest/gtest.h>

#include <thread>

#include "dart/dart.hpp"
#include "platform/transfer_log.hpp"
#include "runtime/runtime.hpp"

namespace cods {
namespace {

TransferRecord make_record(i32 src_node, i32 dst_node, u64 bytes,
                           bool net, i32 app = 1) {
  TransferRecord r;
  r.src = CoreLoc{src_node, 0};
  r.dst = CoreLoc{dst_node, 0};
  r.bytes = bytes;
  r.via_network = net;
  r.app_id = app;
  r.model_time = 1e-4;
  return r;
}

TEST(TransferLog, RecordsAndSnapshots) {
  TransferLog log;
  log.record(make_record(0, 1, 100, true));
  log.record(make_record(0, 0, 50, false));
  EXPECT_EQ(log.size(), 2u);
  const auto records = log.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].bytes, 100u);
  EXPECT_TRUE(records[0].via_network);
  EXPECT_FALSE(records[1].via_network);
}

TEST(TransferLog, CapacityBoundsAndDropCount) {
  TransferLog log(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) log.record(make_record(0, 1, 1, true));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
}

TEST(TransferLog, ThreadSafeRecording) {
  TransferLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) log.record(make_record(0, 1, 1, true));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.size(), 2000u);
}

TEST(TransferLog, AttachedToDartCapturesTransfers) {
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 2});
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  TransferLog log;
  metrics.set_journal(&log);

  std::vector<std::byte> window(64);
  dart.expose(1, 7, window);
  std::vector<std::byte> dst(32);
  dart.get(Endpoint{0, {0, 0}}, 3, TrafficClass::kInterApp,
           Endpoint{1, {1, 0}}, 7, 0, dst);
  ASSERT_EQ(log.size(), 1u);
  const auto records = log.snapshot();
  EXPECT_EQ(records[0].bytes, 32u);
  EXPECT_TRUE(records[0].via_network);
  EXPECT_EQ(records[0].app_id, 3);
  EXPECT_GT(records[0].model_time, 0.0);

  // Control RPCs and point-to-point sends land in the same journal: the
  // registry every component shares is the one attach point.
  dart.rpc(Endpoint{0, {0, 0}}, Endpoint{1, {1, 0}}, /*count=*/2);
  Runtime runtime(cluster, metrics);
  runtime.set_exec_mode(ExecMode::kSimulate);
  runtime.run({CoreLoc{0, 0}, CoreLoc{0, 1}}, [](RankCtx& ctx) {
    if (ctx.world.rank() == 0) {
      ctx.world.send_value<i64>(1, 0, 42);
    } else {
      EXPECT_EQ(ctx.world.recv_value<i64>(0, 0), 42);
    }
  });
  ASSERT_EQ(log.size(), 3u);
  const auto all = log.snapshot();
  EXPECT_EQ(all[1].cls, TrafficClass::kControl);
  EXPECT_EQ(all[1].app_id, 0);
  EXPECT_TRUE(all[1].via_network);
  EXPECT_GT(all[1].bytes, 0u);
  EXPECT_EQ(all[2].cls, TrafficClass::kIntraApp);
  EXPECT_EQ(all[2].bytes, sizeof(i64));
  EXPECT_FALSE(all[2].via_network);
  u64 journaled_control = 0;
  for (const TransferRecord& r : all) {
    if (r.cls == TrafficClass::kControl) journaled_control += r.bytes;
  }
  EXPECT_EQ(journaled_control, metrics.total(TrafficClass::kControl).total());

  // Detach: no further records.
  metrics.set_journal(nullptr);
  dart.get(Endpoint{0, {0, 0}}, 3, TrafficClass::kInterApp,
           Endpoint{1, {1, 0}}, 7, 0, dst);
  EXPECT_EQ(log.size(), 3u);
}

}  // namespace
}  // namespace cods
