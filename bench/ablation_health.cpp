// Ablation (docs/FAULT_MODEL.md): cost and behaviour of the health
// subsystem on a live sequential producer -> consumer workflow. Sweeps the
// heartbeat-loss rate under a scheduled mid-wave crash to show how
// detection latency and sweep-round counts respond to an unreliable
// control plane, then adds straggler rows comparing detection-only against
// speculative re-execution, and a clean-run row proving the layer is free
// when nothing fails.
#include <cstdio>

#include "apps/synthetic.hpp"
#include "workflow/engine.hpp"

using namespace cods;

namespace {

AppSpec make_app(i32 id, std::string name, std::vector<i64> extents,
                 std::vector<i32> procs) {
  AppSpec app;
  app.app_id = id;
  app.name = std::move(name);
  app.dec = blocked(std::move(extents), std::move(procs));
  return app;
}

struct Outcome {
  u64 heartbeats = 0;       // heartbeat messages swept through the fabric
  u64 dropped = 0;          // of which the injector ate
  i32 detection_rounds = 0; // sweep rounds across all waves
  double latency = 0.0;     // worst first-miss -> declared-dead gap
  i32 stragglers = 0;
  i32 speculated = 0;
  i32 spec_wins = 0;
  u64 recovered = 0;        // bytes restored from the wave checkpoint
  u64 mismatches = 0;
};

Outcome run_workflow(const FaultSpec& spec, const HealthConfig& health) {
  Cluster cluster(ClusterSpec{.num_nodes = 8, .cores_per_node = 8});
  Metrics metrics;
  WorkflowServer server(cluster, metrics, Box{{0, 0}, {63, 63}});
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  server.register_app(make_app(1, "producer", {64, 64}, {8, 4}),
                      make_pattern_producer({{"field"}, 2, true, 11}));
  server.register_app(
      make_app(2, "consumer", {64, 64}, {4, 4}),
      make_pattern_consumer({{"field"}, 2, true, 11, mismatches, nullptr}),
      /*consumes_var=*/"field");
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_dependency(1, 2);

  FaultInjector injector(spec);
  WorkflowOptions options;
  options.fault = &injector;
  options.retry.max_retries = 50;
  options.retry.op_timeout = std::chrono::seconds(10);
  // Discrete-event enactment: the same tables as live ranks, without
  // waiting out real receive timeouts behind the crashed node.
  options.exec_mode = ExecMode::kSimulate;
  options.health = health;
  server.run(dag, options);

  Outcome out;
  out.heartbeats = metrics.total_count("health.heartbeats");
  out.dropped = metrics.total_count("health.heartbeats_dropped");
  out.recovered = metrics.total_count("fault.recovery_bytes");
  for (const WaveReport& report : server.wave_reports()) {
    out.detection_rounds += report.detection_rounds;
    out.latency = std::max(out.latency, report.detection_latency);
    out.stragglers += report.straggler_tasks;
    out.speculated += report.speculated_tasks;
    out.spec_wins += report.speculation_wins;
  }
  out.mismatches = mismatches->load();
  return out;
}

void rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace

int main() {
  std::printf("Ablation: health subsystem under heartbeat loss, crashes and "
              "stragglers (64x64 field, 8 nodes x 8 cores)\n");
  rule(102);
  std::printf("%-26s %9s %8s %7s %12s %6s %6s %5s %10s\n", "scenario",
              "beats", "dropped", "rounds", "latency", "strag", "spec",
              "wins", "recovered");
  rule(102);

  struct Row {
    std::string name;
    FaultSpec spec;
    HealthConfig health;
  };
  std::vector<Row> rows;
  rows.push_back({"off (clean run)", FaultSpec{}, HealthConfig{}});
  for (const double p : {0.0, 0.05, 0.10, 0.20}) {
    FaultSpec spec;
    spec.seed = 17;
    spec.p_heartbeat = p;
    spec.crashes.push_back(NodeCrash{/*wave=*/1, /*node=*/1, /*after_ops=*/0});
    char name[48];
    std::snprintf(name, sizeof(name), "crash, hb loss p = %.2f", p);
    rows.push_back({name, spec, HealthConfig{}});
  }
  {
    FaultSpec spec;
    spec.seed = 17;
    spec.slowdowns.push_back(Slowdown{/*wave=*/0, /*node=*/0, /*factor=*/40});
    rows.push_back({"straggler, detect only", spec, HealthConfig{}});
    HealthConfig speculate;
    speculate.speculation = true;
    rows.push_back({"straggler, speculate", spec, speculate});
  }

  for (const Row& row : rows) {
    const Outcome out = run_workflow(row.spec, row.health);
    std::printf("%-26s %9llu %8llu %7d %9.3f ms %6d %6d %5d %6llu KiB%s\n",
                row.name.c_str(), (unsigned long long)out.heartbeats,
                (unsigned long long)out.dropped, out.detection_rounds,
                out.latency * 1e3, out.stragglers, out.speculated,
                out.spec_wins, (unsigned long long)(out.recovered / 1024),
                out.mismatches == 0 ? "" : "  DATA MISMATCH");
  }
  rule(102);
  std::printf("a clean run sweeps zero heartbeats (the layer is free when "
              "healthy); heartbeat loss stretches detection\nlatency but "
              "never produces a false death; speculation re-runs stragglers "
              "and first-completion-wins keeps\nthe byte ledger identical to "
              "the detect-only run.\n");
  return 0;
}
