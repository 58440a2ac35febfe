// End-to-end fault-injection tests (docs/FAULT_MODEL.md): transient faults
// are retried transparently, a node crash mid-wave triggers checkpoint
// restore + re-mapping + re-execution, and identical fault specs replay to
// identical traces.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "apps/synthetic.hpp"
#include "workflow/engine.hpp"

#include "support/apps.hpp"

namespace cods {
namespace {

using testing::make_app;


RetryPolicy fast_retry() {
  RetryPolicy retry;
  retry.max_retries = 50;  // transients essentially never exhaust
  retry.op_timeout = std::chrono::seconds(2);
  return retry;
}

/// Sequential producer -> consumer workflow under one fault spec.
/// Returns observables for determinism comparison.
struct RunResult {
  u64 mismatches = 0;
  std::string trace;
  u64 retries = 0;
  u64 failovers = 0;
  u64 recovery_bytes = 0;
  u64 net_bytes = 0;
  std::vector<WaveReport> reports;
};

RunResult run_sequential_workflow(const FaultSpec& spec) {
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {15, 15}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  server.register_app(make_app(1, "producer", {16, 16}, {4, 2}),
                      make_pattern_producer({{"field"}, 1, true, 11}));
  server.register_app(
      make_app(2, "consumer", {16, 16}, {2, 2}),
      make_pattern_consumer({{"field"}, 1, true, 11, mismatches, nullptr}),
      /*consumes_var=*/"field");
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_dependency(1, 2);

  FaultInjector injector(spec);
  WorkflowOptions options;
  options.fault = &injector;
  options.retry = fast_retry();
  server.run(dag, options);

  RunResult result;
  result.mismatches = mismatches->load();
  result.trace = injector.trace_string();
  result.retries = metrics.total_count("fault.retries");
  result.failovers = metrics.total_count("fault.failovers");
  result.recovery_bytes = metrics.total_count("fault.recovery_bytes");
  result.net_bytes = metrics.total_net_bytes();
  result.reports = server.wave_reports();
  return result;
}

TEST(FaultRecovery, TransientFaultsRetriedToCompletion) {
  FaultSpec spec;
  spec.seed = 3;
  spec.p_transfer = 0.05;
  spec.p_rpc = 0.05;
  spec.p_send = 0.05;
  const RunResult r = run_sequential_workflow(spec);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_GT(r.retries, 0u);  // faults did happen...
  ASSERT_EQ(r.reports.size(), 2u);
  for (const WaveReport& report : r.reports) {
    EXPECT_EQ(report.attempts, 1);  // ...but no wave had to be re-run
    EXPECT_TRUE(report.failed_nodes.empty());
  }
}

TEST(FaultRecovery, NodeCrashMidWaveRecovers) {
  // Node 1 (half of the producer's stored data) dies at the start of the
  // consumer wave: the engine must drop it, restore its objects from the
  // wave-entry checkpoint onto survivors, re-map and re-execute — and the
  // consumer must still see byte-correct data.
  FaultSpec spec;
  spec.seed = 5;
  spec.crashes.push_back(NodeCrash{/*wave=*/1, /*node=*/1, /*after_ops=*/0});
  const RunResult r = run_sequential_workflow(spec);
  EXPECT_EQ(r.mismatches, 0u);
  ASSERT_EQ(r.reports.size(), 2u);
  EXPECT_EQ(r.reports[0].attempts, 1);  // producer wave was clean

  const WaveReport& wave1 = r.reports[1];
  EXPECT_EQ(wave1.attempts, 2);
  EXPECT_EQ(wave1.failed_nodes, (std::vector<i32>{1}));
  EXPECT_GT(wave1.failed_tasks, 0);
  EXPECT_GT(wave1.reexecuted_tasks, 0);
  // Producer data: 16x16 cells x 8 bytes, half of it homed on node 1.
  EXPECT_EQ(wave1.recovered_bytes, 16u * 16u * 8u / 2u);
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_EQ(r.recovery_bytes, wave1.recovered_bytes);
}

TEST(FaultRecovery, CrashInFirstWaveReproducesLostPuts) {
  // The producer's own wave is hit: tasks on the dead node never stored
  // their regions, so the engine re-executes the producer on survivors and
  // the consumer wave must still find full coverage.
  FaultSpec spec;
  spec.seed = 9;
  spec.crashes.push_back(NodeCrash{/*wave=*/0, /*node=*/0, /*after_ops=*/0});
  const RunResult r = run_sequential_workflow(spec);
  EXPECT_EQ(r.mismatches, 0u);
  ASSERT_EQ(r.reports.size(), 2u);
  EXPECT_EQ(r.reports[0].attempts, 2);
  EXPECT_EQ(r.reports[0].failed_nodes, (std::vector<i32>{0}));
  EXPECT_GT(r.reports[0].reexecuted_tasks, 0);
  EXPECT_EQ(r.reports[1].attempts, 1);
}

TEST(FaultRecovery, IdenticalSpecReplaysIdentically) {
  // The replay acceptance criterion: same {seed, fault spec} => identical
  // failure/retry/recovery trace and identical traffic, run to run.
  FaultSpec spec;
  spec.seed = 17;
  spec.p_transfer = 0.03;
  spec.p_send = 0.03;
  spec.crashes.push_back(NodeCrash{/*wave=*/1, /*node=*/1, /*after_ops=*/0});
  const RunResult a = run_sequential_workflow(spec);
  const RunResult b = run_sequential_workflow(spec);
  EXPECT_EQ(a.mismatches, 0u);
  EXPECT_EQ(b.mismatches, 0u);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.recovery_bytes, b.recovery_bytes);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
}

TEST(FaultRecovery, FaultFreeRunIsByteIdenticalToNoInjector) {
  // Zero-overhead-off acceptance at the engine level: attaching an
  // injector whose schedule is empty must not change a single byte of
  // accounted traffic.
  const RunResult with_inactive = run_sequential_workflow(FaultSpec{});
  EXPECT_EQ(with_inactive.mismatches, 0u);
  EXPECT_EQ(with_inactive.retries, 0u);
  EXPECT_TRUE(with_inactive.trace.empty());

  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {15, 15}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  server.register_app(make_app(1, "producer", {16, 16}, {4, 2}),
                      make_pattern_producer({{"field"}, 1, true, 11}));
  server.register_app(
      make_app(2, "consumer", {16, 16}, {2, 2}),
      make_pattern_consumer({{"field"}, 1, true, 11, mismatches, nullptr}),
      "field");
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_dependency(1, 2);
  server.run(dag);  // no injector at all
  EXPECT_EQ(mismatches->load(), 0u);
  EXPECT_EQ(metrics.total_net_bytes(), with_inactive.net_bytes);
}

TEST(FaultRecovery, UnrecoverableWhenAllNodesNeededDie) {
  // Recovery budget: with max_wave_attempts = 1, a node crash is terminal
  // and the original task error surfaces.
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {15, 15}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  server.register_app(make_app(1, "producer", {16, 16}, {4, 2}),
                      make_pattern_producer({{"field"}, 1, true, 11}));
  server.register_app(
      make_app(2, "consumer", {16, 16}, {2, 2}),
      make_pattern_consumer({{"field"}, 1, true, 11, mismatches, nullptr}),
      "field");
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_dependency(1, 2);

  FaultSpec spec;
  spec.crashes.push_back(NodeCrash{/*wave=*/1, /*node=*/1, /*after_ops=*/0});
  FaultInjector injector(spec);
  WorkflowOptions options;
  options.fault = &injector;
  options.retry = fast_retry();
  options.retry.max_wave_attempts = 1;
  EXPECT_THROW(server.run(dag, options), Error);
}

TEST(FaultRecovery, CrashInMultiBundleWaveRerunsWholeWave) {
  // A producer and a bystander that touches no shared data share wave 0
  // as separate bundles. Node 0 dies after the wave's communicator split
  // (30 ops into kSimulate's deterministic schedule), so only the
  // producer's puts fail and the bystander completes its first attempt.
  // Failover still re-maps and re-runs the whole wave over the survivors
  // — a bundle kept in its recorded placement could hold cores the
  // re-mapped ones are given — so every task of the wave re-executes and
  // the final placements share no core and avoid the dead node.
  Cluster cluster(ClusterSpec{.num_nodes = 4, .cores_per_node = 4});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {15, 15}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  auto bystander_runs = std::make_shared<std::atomic<i32>>(0);
  server.register_app(make_app(1, "producer", {16, 16}, {4, 2}),
                      make_pattern_producer({{"field"}, 1, true, 13}));
  server.register_app(make_app(3, "bystander", {16, 16}, {2, 2}),
                      [bystander_runs](AppCtx&) { ++*bystander_runs; });
  server.register_app(
      make_app(2, "consumer", {16, 16}, {2, 2}),
      make_pattern_consumer({{"field"}, 1, true, 13, mismatches, nullptr}),
      /*consumes_var=*/"field");
  DagSpec dag;
  for (i32 app_id : {1, 2, 3}) dag.add_app(app_id);
  dag.add_dependency(1, 2);

  FaultSpec spec;
  spec.seed = 23;
  spec.crashes.push_back(
      NodeCrash{/*wave=*/0, /*node=*/0, /*after_ops=*/30});
  FaultInjector injector(spec);
  WorkflowOptions options;
  options.fault = &injector;
  options.retry = fast_retry();
  options.exec_mode = ExecMode::kSimulate;
  server.run(dag, options);

  EXPECT_EQ(mismatches->load(), 0u);
  const auto& reports = server.wave_reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].attempts, 2);
  EXPECT_EQ(reports[0].failed_nodes, (std::vector<i32>{0}));
  EXPECT_EQ(reports[0].failed_tasks, 8);          // the producer only
  EXPECT_EQ(reports[0].reexecuted_tasks, 8 + 4);  // both bundles
  EXPECT_EQ(bystander_runs->load(), 4 + 4);
  EXPECT_EQ(reports[1].attempts, 1);

  std::set<std::pair<i32, i32>> cores;
  for (i32 app_id : {1, 3}) {
    for (const auto& [task, loc] : server.placement(app_id).all()) {
      EXPECT_NE(loc.node, 0) << "app " << app_id << " rank " << task.rank;
      EXPECT_TRUE(cores.emplace(loc.node, loc.core).second)
          << "core (" << loc.node << ", " << loc.core << ") placed twice";
    }
  }
  EXPECT_EQ(cores.size(), 8u + 4u);
}

}  // namespace
}  // namespace cods
