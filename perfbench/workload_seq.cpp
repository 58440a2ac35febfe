// seq-scale: one sequentially coupled producer -> consumer workflow of
// 81,920 ranks enacted under ExecMode::kSimulate with client data-centric
// mapping. A 256 x 256 producer grid puts 2 x 2 cells (32 B) per task;
// a 128 x 128 consumer grid gets and verifies them. Host time goes to the
// event loop, the stack arena, put_seq storage, DHT insert/lookup and SFC
// indexing; payload copies are negligible.
//
// The seed draws the pattern the producers write and the torus shape of
// the modelled machine (a near-cubic padded factorization, as the
// weak-scaling bench uses): the host-side work and the byte ledger stay
// the same, the modelled times move slightly.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "apps/synthetic.hpp"
#include "counters.hpp"
#include "probes.hpp"
#include "trace/critical_path.hpp"

namespace perfbench {

using namespace cods;

namespace {

constexpr i32 kSide = 256;
constexpr i64 kExtent = 2 * kSide;
constexpr i32 kCoresPerNode = 12;
// Reference counts of this configuration: the side-256 row of the
// simulate weak-scaling sweep, and the byte split of client data-centric
// mapping (half the consumers' data is node-local).
constexpr u64 kRefSwitches = 491520;
constexpr u64 kRefConsumerShm = 1048576;
constexpr u64 kRefConsumerNet = 1048576;
constexpr u64 kRefLookupMiss = 16384;

AppSpec grid_app(i32 id, const char* name, i32 procs) {
  AppSpec spec;
  spec.app_id = id;
  spec.name = name;
  spec.dec = Decomposition({kExtent, kExtent}, {procs, procs}, Dist::kBlocked);
  spec.elem_size = 8;
  return spec;
}

/// Torus shapes the seed picks from: the orientations of the near-cubic
/// padded box holding `nodes` (a x a x c, as the weak-scaling bench
/// models its rungs). They wire the same nodes differently, which moves
/// the modelled network times slightly and the host work hardly at all.
std::array<i32, 3> torus_for(i32 nodes, u64 seed) {
  i32 a = 1;
  while (a * a * a < nodes) ++a;
  const i32 c = (nodes + a * a - 1) / (a * a);
  const std::array<std::array<i32, 3>, 3> shapes = {
      {{a, a, c}, {a, c, a}, {c, a, a}}};
  return shapes[seed % shapes.size()];
}

struct SeqInputs {
  ClusterSpec cluster;
  AppSpec producer = grid_app(1, "producer", kSide);
  AppSpec consumer = grid_app(2, "consumer", kSide / 2);
  u64 pattern_seed = 1;
};

SeqInputs make_inputs(u64 seed) {
  SeqInputs in;
  const i32 nodes = (kSide * kSide + kCoresPerNode - 1) / kCoresPerNode;
  in.cluster = ClusterSpec{.num_nodes = nodes, .cores_per_node = kCoresPerNode};
  in.cluster.torus = torus_for(nodes, seed);
  in.pattern_seed = 1 + seed % 1000003;
  return in;
}

struct SeqOp {
  double setup_s = 0.0;
  double run_s = 0.0;
  u64 mismatches = 0;
  ByteCounters consumer_inter;
  ServerCounters counters;
};

/// Sets up and enacts the workflow once. `after` sees the finished server
/// (placements, space) before it is torn down.
SeqOp run_once(const SeqInputs& in, SpanLog& spans, TraceRecorder* trace,
               const std::function<void(WorkflowServer&, const Cluster&)>&
                   after = {}) {
  SeqOp op;
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  const auto setup_start = Clock::now();
  std::optional<BenchSpan> setup_span(std::in_place, spans, "setup");
  Cluster cluster(in.cluster);
  Metrics metrics;
  WorkflowServer server(cluster, metrics, in.producer.dec.domain_box());
  server.register_app(in.producer, make_pattern_producer(
                                       {{"field"}, 1, true, in.pattern_seed}));
  server.register_app(in.consumer,
                      make_pattern_consumer({{"field"}, 1, true,
                                             in.pattern_seed, mismatches,
                                             nullptr}),
                      /*consumes_var=*/"field");
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_dependency(1, 2);
  WorkflowOptions options;
  options.strategy = MappingStrategy::kDataCentric;
  options.exec_mode = ExecMode::kSimulate;
  options.trace = trace;
  setup_span.reset();
  op.setup_s = seconds_since(setup_start);

  {
    BenchSpan span(spans, "run");
    op.run_s = time_s([&] { server.run(dag, options); });
  }
  BenchSpan span(spans, "verify");
  op.mismatches = mismatches->load();
  op.consumer_inter = metrics.counters(2, TrafficClass::kInterApp);
  op.counters = ServerCounters::capture(server, metrics);
  if (after) after(server, cluster);
  return op;
}

}  // namespace

void run_seq_scale(const RunConfig& config, SpanLog& spans, RunReport& report) {
  const SeqInputs in = make_inputs(config.seed);
  const u64 tasks = task_count({in.producer, in.consumer});
  report.note("torus " + std::to_string(in.cluster.torus[0]) + "x" +
              std::to_string(in.cluster.torus[1]) + "x" +
              std::to_string(in.cluster.torus[2]) + ", " +
              std::to_string(in.cluster.num_nodes) + " nodes, " +
              std::to_string(tasks) + " ranks, pattern seed " +
              std::to_string(in.pattern_seed));

  // Probes that need no workload state run first, on a fresh heap.
  if (config.trace) {
    BenchSpan span(spans, "probe.dart");
    probe_dart(report);
  }

  // Warm-up op, untimed: its counters are the reference every timed op
  // must repeat exactly.
  LoopSamples loop;
  SeqOp first;
  {
    BenchSpan span(spans, "warmup");
    first = run_once(in, spans, nullptr);
  }
  loop.setup_s.push_back(first.setup_s);
  const std::string fingerprint = first.counters.fingerprint();
  report.check(first.mismatches == 0, "seq-scale: pattern mismatches");
  report.check(first.counters.sim.switches == kRefSwitches,
               "seq-scale: sim.switches " +
                   std::to_string(first.counters.sim.switches) + " != 491520");
  report.check(first.consumer_inter.shm_bytes == kRefConsumerShm &&
                   first.consumer_inter.net_bytes == kRefConsumerNet,
               "seq-scale: consumer shm/net bytes " +
                   std::to_string(first.consumer_inter.shm_bytes) + "/" +
                   std::to_string(first.consumer_inter.net_bytes) +
                   " != 1048576/1048576");
  report.check(first.counters.lookup_miss == kRefLookupMiss,
               "seq-scale: dht.lookup_miss " +
                   std::to_string(first.counters.lookup_miss) + " != 16384");

  auto timed_loop = [&](LoopSamples& samples, double seconds) {
    const auto start = Clock::now();
    do {
      BenchSpan span(spans, "op");
      const SeqOp op = run_once(in, spans, nullptr);
      samples.op_s.push_back(op.run_s);
      samples.setup_s.push_back(op.setup_s);
      samples.tasks += tasks;
      ++samples.attempted;
      const bool same = op.counters.fingerprint() == fingerprint;
      report.check(same, "seq-scale: counters differ between repeated ops");
      if (op.mismatches != 0 || !same) ++samples.failed;
    } while (seconds_since(start) < seconds);
  };

  // A traced enactment: its spans and the host seconds of its run().
  auto traced_op = [&](std::vector<TraceSpan>& out) {
    BenchSpan span(spans, "op.traced");
    TraceRecorder recorder;
    const SeqOp op = run_once(in, spans, &recorder);
    report.check(op.counters.fingerprint() == fingerprint,
                 "seq-scale: tracing changed the counters");
    out = recorder.snapshot();
    return op.run_s;
  };

  std::vector<TraceSpan> trace;
  if (!config.trace) {
    timed_loop(loop, config.seconds);
    loop.peak_rss_mb = peak_rss_mb();
    traced_op(trace);
    const TraceAnalysis analysis = analyze_trace(trace);
    report.check(analysis.net_bytes == first.counters.inter.net_bytes +
                                           first.counters.intra.net_bytes,
                 "seq-scale: trace ledger disagrees with the metrics");
    Modeled modeled;
    modeled.net_bytes = static_cast<double>(first.counters.inter.net_bytes);
    modeled.intra_net_bytes =
        static_cast<double>(first.counters.intra.net_bytes);
    modeled.makespan_s = first.counters.sim.final_vtime;
    modeled.retrieve_s = modeled_retrieve(trace, {2});
    report_end_to_end(report, loop, modeled);
    return;
  }

  // Traced run: half the time untraced, half traced, then the probes.
  LoopSamples untraced, traced;
  timed_loop(untraced, config.seconds / 2);
  const auto traced_start = Clock::now();
  do {
    traced.op_s.push_back(traced_op(trace));
  } while (seconds_since(traced_start) < config.seconds / 2);
  report_trace_overhead(report, untraced, traced);
  report_trace_layer(report, trace, analyze_trace(trace));
  first.counters.report(report, median(untraced.op_s));
  report.attempted = untraced.attempted;
  report.failed = untraced.failed;

  BenchSpan probes(spans, "probes");
  run_once(in, spans, nullptr,
           [&](WorkflowServer& server, const Cluster& cluster) {
             {
               BenchSpan span(spans, "probe.cost_model");
               probe_cost_model(
                   report, cluster,
                   consumer_flows(in.producer, server.placement(1),
                                  in.consumer, server.placement(2),
                                  /*stored_at_node_service=*/true),
                   {});
             }
             BenchSpan span(spans, "probe.dht_sfc");
             probe_dht_sfc(report, cluster, in.producer, server.placement(1),
                           in.consumer);
           });
}

}  // namespace perfbench
