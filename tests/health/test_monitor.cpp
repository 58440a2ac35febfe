// HealthMonitor tests: heartbeat sweeps over the injector's fate oracle,
// detection of dead nodes from verdicts (never from the crash schedule),
// heartbeat traffic accounting through the byte funnel, and the
// zero-traffic guarantee of clean runs (docs/FAULT_MODEL.md).
#include <gtest/gtest.h>

#include "health/monitor.hpp"

namespace cods {
namespace {

constexpr i32 kNodes = 4;

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest()
      : cluster_(ClusterSpec{.num_nodes = kNodes, .cores_per_node = 4}),
        dart_(cluster_, metrics_) {}

  HealthMonitor make(FaultInjector& injector, HealthConfig config = {}) {
    return HealthMonitor(config, injector, dart_, kNodes);
  }

  Cluster cluster_;
  Metrics metrics_;
  HybridDart dart_;
};

TEST_F(MonitorTest, CleanClusterSettlesInOneRound) {
  FaultInjector injector(FaultSpec{});
  HealthMonitor monitor = make(injector);
  const auto newly = monitor.run_detection();
  EXPECT_TRUE(newly.empty());
  EXPECT_EQ(monitor.last_detection_rounds(), 1);
  EXPECT_TRUE(monitor.confirmed_dead().empty());
  // One round: every node delivered exactly one heartbeat.
  EXPECT_EQ(metrics_.total_count("health.heartbeats"),
            static_cast<u64>(kNodes));
  EXPECT_EQ(metrics_.total_count("health.heartbeats_dropped"), 0u);
}

TEST_F(MonitorTest, SettleIsFreeWhileSettled) {
  // The golden-ledger invariant hinges on this: with no suspicion in
  // flight, settle() must sweep nothing and emit zero heartbeat bytes.
  FaultInjector injector(FaultSpec{});
  HealthMonitor monitor = make(injector);
  monitor.settle();
  monitor.settle();
  EXPECT_EQ(monitor.now(), 0.0);
  EXPECT_EQ(metrics_.total_count("health.heartbeats"), 0u);
}

TEST_F(MonitorTest, DeadNodeDeclaredWithLatency) {
  FaultInjector injector(FaultSpec{});
  injector.declare_dead(1);
  HealthMonitor monitor = make(injector);
  const auto newly = monitor.run_detection();
  EXPECT_EQ(newly, (std::vector<i32>{1}));
  EXPECT_EQ(monitor.confirmed_dead(), (std::vector<i32>{1}));
  // The death gate: at least min_missed_dead rounds of silence.
  const DetectorConfig& dc = monitor.config().detector;
  EXPECT_GE(monitor.last_detection_rounds(), dc.min_missed_dead);
  // Detection latency spans first miss -> declaration.
  EXPECT_GT(monitor.last_detection_latency(), 0.0);
  EXPECT_NEAR(monitor.last_detection_latency(),
              (dc.min_missed_dead - 1) * dc.heartbeat_period, 1e-9);
  // The crashed node emitted nothing; survivors heartbeat every round.
  EXPECT_EQ(metrics_.total_count("health.heartbeats"),
            static_cast<u64>(monitor.last_detection_rounds()) * (kNodes - 1));
}

TEST_F(MonitorTest, DetectionIsIdempotent) {
  FaultInjector injector(FaultSpec{});
  injector.declare_dead(2);
  HealthMonitor monitor = make(injector);
  EXPECT_EQ(monitor.run_detection(), (std::vector<i32>{2}));
  // A second pass must not re-declare (and settles fast: confirmed nodes
  // are not swept).
  EXPECT_TRUE(monitor.run_detection().empty());
  EXPECT_EQ(monitor.confirmed_dead(), (std::vector<i32>{2}));
}

TEST_F(MonitorTest, DroppedHeartbeatsDoNotKillLiveNodes) {
  // Injected heartbeat loss: suspicion may flare, but the consecutive-miss
  // gate keeps live nodes alive, and run_detection settles back down.
  FaultSpec spec;
  spec.seed = 33;
  spec.p_heartbeat = 0.2;
  FaultInjector injector(spec);
  injector.begin_wave(0);
  HealthMonitor monitor = make(injector);
  for (i32 pass = 0; pass < 10; ++pass) {
    EXPECT_TRUE(monitor.run_detection().empty()) << "pass " << pass;
  }
  EXPECT_TRUE(monitor.confirmed_dead().empty());
  EXPECT_GT(metrics_.total_count("health.heartbeats_dropped"), 0u);
  // Dropped heartbeats still crossed the fabric: emission count includes
  // them (the admit_op stance on failed attempts).
  EXPECT_GT(metrics_.total_count("health.heartbeats"),
            metrics_.total_count("health.heartbeats_dropped"));
}

TEST_F(MonitorTest, DelayedHeartbeatsPerturbButSettle) {
  FaultSpec spec;
  spec.seed = 12;
  spec.p_heartbeat_delay = 0.3;
  spec.heartbeat_delay_frac = 0.5;
  FaultInjector injector(spec);
  injector.begin_wave(0);
  HealthMonitor monitor = make(injector);
  for (i32 pass = 0; pass < 5; ++pass) {
    EXPECT_TRUE(monitor.run_detection().empty());
  }
  EXPECT_TRUE(monitor.confirmed_dead().empty());
}

TEST_F(MonitorTest, VerdictFeedsBackIntoInjector) {
  // The monitor's declaration is a *write* to the injector (fail-fast for
  // the transport), never a read of its schedule.
  FaultInjector injector(FaultSpec{});
  injector.declare_dead(0);
  HealthMonitor monitor = make(injector);
  monitor.run_detection();
  EXPECT_TRUE(injector.is_dead(0));
  // Untrusted = quarantined/probation; a dead node is neither.
  EXPECT_TRUE(monitor.untrusted().empty());
}

TEST_F(MonitorTest, HeartbeatFateDoesNotConsumeCrashClock) {
  // kHeartbeat decisions hash their own streams: sweeping heartbeats must
  // not advance the injector's per-wave op count, or attaching the health
  // layer would shift every scheduled crash trigger point.
  FaultSpec spec;
  spec.seed = 5;
  spec.crashes.push_back(NodeCrash{/*wave=*/0, /*node=*/1, /*after_ops=*/3});
  FaultInjector with_sweeps(spec);
  FaultInjector without(spec);
  with_sweeps.begin_wave(0);
  without.begin_wave(0);
  for (i32 round = 0; round < 100; ++round) {
    for (i32 node = 0; node < kNodes; ++node) {
      (void)with_sweeps.heartbeat_fate(node, round);
    }
  }
  // Same op stream on both injectors: the crash must fire on the same op.
  auto drive = [](FaultInjector& inj) {
    i32 crashed_at = -1;
    for (i32 op = 0; op < 10; ++op) {
      try {
        (void)inj.on_op(FaultSite::kPut, /*client=*/4, /*node=*/1,
                        /*peer=*/0);
      } catch (const NodeDownError&) {
        if (crashed_at < 0) crashed_at = op;
      }
    }
    return crashed_at;
  };
  EXPECT_EQ(drive(with_sweeps), drive(without));
}

}  // namespace
}  // namespace cods
