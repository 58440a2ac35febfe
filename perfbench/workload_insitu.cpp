// insitu-live: the paper's in-situ mode, really run on the benchmark host. A
// stencil heat-diffusion simulation (64 ranks, 4 x 4 x 4 over 128^3
// doubles, real halo exchanges) and a moments analysis (8 ranks,
// 2 x 2 x 2) run as one concurrent bundle for 8 coupled iterations,
// mapped by the server-side data-centric strategy onto 6 nodes x 12 cores
// and dispatched under ExecMode::kPooled on a 4-thread pool. Host time
// goes to dart copies, the lock service, runtime send/recv and allreduce,
// the executor and the Metrics shards; the simulate event loop never runs.
//
// The seed picks the torus shape of the machine. The partitioner seed
// stays at the engine's default: the 72-task bundle's edge cut jumps by
// up to a third between partitioner seeds, which would swamp every
// end-to-end bound (paper-plan varies the partitioner seed instead).
// Every op's moments must equal those of a kSimulate enactment of the
// same inputs.
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

constexpr i64 kExtent = 128;
constexpr i32 kIterations = 8;
constexpr i32 kPoolSize = 4;
// Torus shapes of the 6-node machine the seed picks from: how the job's
// nodes are wired moves the modelled network times by a few percent.
const std::vector<std::array<i32, 3>> kTorusShapes = {
    {3, 2, 1}, {2, 3, 1}, {1, 2, 3}, {2, 1, 3}, {3, 1, 2},
    {1, 3, 2}, {6, 1, 1}, {1, 6, 1}, {1, 1, 6}, {2, 2, 2}};

AppSpec cube_app(i32 id, const char* name, i32 procs) {
  AppSpec spec;
  spec.app_id = id;
  spec.name = name;
  spec.dec = Decomposition({kExtent, kExtent, kExtent}, {procs, procs, procs},
                           Dist::kBlocked);
  spec.elem_size = 8;
  return spec;
}

struct InsituInputs {
  ClusterSpec cluster{.num_nodes = 6, .cores_per_node = 12};
  AppSpec sim = cube_app(1, "heat-sim", 4);
  AppSpec analysis = cube_app(2, "moments", 2);
  u64 map_seed = WorkflowOptions{}.seed;
};

struct InsituOp {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<Moments> moments;
  i64 cut_bytes = -1;
  ServerCounters counters;

  std::string fingerprint() const {
    std::string s =
        counters.fingerprint() + " cut " + std::to_string(cut_bytes);
    for (const Moments& m : moments) {
      s += " " + exact(m.min) + "/" + exact(m.max) + "/" + exact(m.mean);
    }
    return s;
  }
};

InsituOp run_once(const InsituInputs& in, ExecMode mode, SpanLog& spans,
                  TraceRecorder* trace,
                  const std::function<void(WorkflowServer&, const Cluster&)>&
                      after = {}) {
  InsituOp op;
  const auto setup_start = Clock::now();
  std::optional<BenchSpan> setup_span(std::in_place, spans, "setup");
  Cluster cluster(in.cluster);
  Metrics metrics;
  WorkflowServer server(cluster, metrics, in.sim.dec.domain_box());
  auto moments = std::make_shared<std::vector<Moments>>(kIterations);
  server.register_app(in.sim,
                      make_stencil_simulation({"temperature", kIterations}));
  server.register_app(in.analysis, make_moments_analysis(
                                       {"temperature", kIterations, moments}));
  DagSpec dag;
  dag.add_app(1);
  dag.add_app(2);
  dag.add_bundle({1, 2});
  WorkflowOptions options;
  options.strategy = MappingStrategy::kDataCentric;
  options.seed = in.map_seed;
  options.exec_mode = mode;
  options.exec_pool_size = kPoolSize;
  options.trace = trace;
  setup_span.reset();
  op.setup_s = seconds_since(setup_start);

  {
    BenchSpan span(spans, "run");
    op.run_s = time_s([&] { server.run(dag, options); });
  }
  BenchSpan span(spans, "verify");
  op.moments = *moments;
  op.cut_bytes = server.wave_reports().at(0).comm_graph_cut_bytes;
  op.counters = ServerCounters::capture(server, metrics);
  if (after) after(server, cluster);
  return op;
}

}  // namespace

void run_insitu_live(const RunConfig& config, SpanLog& spans,
                     RunReport& report) {
  InsituInputs in;
  in.cluster.torus = kTorusShapes[config.seed % kTorusShapes.size()];
  const u64 tasks = task_count({in.sim, in.analysis});

  // Probes that need no workload state run first, on a fresh heap.
  if (config.trace) {
    {
      BenchSpan span(spans, "probe.dart");
      probe_dart(report);
    }
    BenchSpan span(spans, "probe.metrics");
    probe_metrics_record(report);
  }

  LoopSamples loop;
  InsituOp first;
  {
    BenchSpan span(spans, "warmup");
    first = run_once(in, ExecMode::kPooled, spans, nullptr);
  }
  loop.setup_s.push_back(first.setup_s);
  const std::string fingerprint = first.fingerprint();
  report.note("server mapping cut " + std::to_string(first.cut_bytes) +
              " B, partitioner seed " + std::to_string(in.map_seed) +
              ", torus " + std::to_string(in.cluster.torus[0]) + "x" +
              std::to_string(in.cluster.torus[1]) + "x" +
              std::to_string(in.cluster.torus[2]));

  auto timed_loop = [&](LoopSamples& samples, double seconds) {
    const auto start = Clock::now();
    do {
      BenchSpan span(spans, "op");
      const InsituOp op = run_once(in, ExecMode::kPooled, spans, nullptr);
      samples.op_s.push_back(op.run_s);
      samples.setup_s.push_back(op.setup_s);
      samples.tasks += tasks;
      ++samples.attempted;
      const bool same = op.fingerprint() == fingerprint;
      report.check(same, "insitu-live: outputs differ between repeated ops");
      if (!same) ++samples.failed;
    } while (seconds_since(start) < seconds);
  };

  auto traced_op = [&](std::vector<TraceSpan>& out) {
    BenchSpan span(spans, "op.traced");
    TraceRecorder recorder;
    const InsituOp op = run_once(in, ExecMode::kPooled, spans, &recorder);
    report.check(op.fingerprint() == fingerprint,
                 "insitu-live: tracing changed the outputs");
    out = recorder.snapshot();
    return op.run_s;
  };

  std::vector<TraceSpan> trace;
  if (!config.trace) {
    timed_loop(loop, config.seconds);
    loop.peak_rss_mb = peak_rss_mb();

    // The same inputs enacted as discrete events must give the same
    // moments and the same byte ledger.
    BenchSpan span(spans, "verify.simulate");
    const InsituOp reference =
        run_once(in, ExecMode::kSimulate, spans, nullptr);
    report.check(reference.moments.size() == first.moments.size(),
                 "insitu-live: moments missing");
    for (size_t i = 0; i < first.moments.size(); ++i) {
      const Moments& a = first.moments[i];
      const Moments& b = reference.moments[i];
      report.check(a.min == b.min && a.max == b.max && a.mean == b.mean,
                   "insitu-live: iteration " + std::to_string(i) +
                       " moments differ from the kSimulate enactment");
    }
    report.check(reference.counters.inter == first.counters.inter &&
                     reference.counters.intra == first.counters.intra,
                 "insitu-live: byte ledger differs from kSimulate");
    report.check(first.moments.back().max > first.moments.back().min,
                 "insitu-live: moments are degenerate");

    traced_op(trace);
    const TraceAnalysis analysis = analyze_trace(trace);
    report.check(analysis.net_bytes == first.counters.inter.net_bytes +
                                           first.counters.intra.net_bytes,
                 "insitu-live: trace ledger disagrees with the metrics");
    Modeled modeled;
    modeled.net_bytes = static_cast<double>(first.counters.inter.net_bytes);
    modeled.intra_net_bytes =
        static_cast<double>(first.counters.intra.net_bytes);
    modeled.makespan_s = analysis.total_time;
    modeled.retrieve_s = modeled_retrieve(trace, {2});
    report_end_to_end(report, loop, modeled);
    return;
  }

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
  run_once(in, ExecMode::kPooled, spans, nullptr,
           [&](WorkflowServer& server, const Cluster& cluster) {
             std::vector<CoreLoc> placement;
             for (const auto& [task, loc] : server.placement(1).all()) {
               placement.push_back(loc);
             }
             for (const auto& [task, loc] : server.placement(2).all()) {
               placement.push_back(loc);
             }
             {
               BenchSpan span(spans, "probe.executor");
               probe_executor(report, cluster, placement, kPoolSize);
             }
             BenchSpan span(spans, "probe.dht_sfc");
             probe_dht_sfc(report, cluster, in.sim, server.placement(1),
                           in.analysis);
           });
  {
    BenchSpan span(spans, "probe.geometry");
    probe_geometry(report, {Coupling{&in.sim, &in.analysis}});
  }
  BenchSpan span(spans, "probe.mapping");
  probe_server_mapping(report, {Bundle{in.cluster, {in.sim, in.analysis}}},
                       in.map_seed);
}

}  // namespace perfbench
