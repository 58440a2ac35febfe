// wfgen-faults: a contiguous seed range of generated workflows, every one
// with a fault overlay (GenParams::p_fault = 1.0, other parameters at
// their defaults), enacted through wfgen::enact under ExecMode::kSimulate
// with the transfer journal and the full oracle suite on. Only this
// workload exercises the health detector, retries, checkpoint/restore,
// re-mapping and the TransferLog journal: many small multi-wave DAGs
// instead of one huge wave.
//
// The seed slides the range: scenarios [1 + seed * kStride, ... + N), so
// neighbouring seeds share most of their scenarios and a run's mix of
// scenario sizes stays comparable from seed to seed.
// A scenario whose enactment throws, mismatches or breaks an oracle is a
// failed op. Oracle failures of the known engine defect (a node crash in
// wave 1 of a multi-app wave leaves the merged placement invalid) are
// counted as failed ops; any other failure also fails the run's checks.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "counters.hpp"
#include "wfgen/enact.hpp"
#include "wfgen/oracle.hpp"

namespace perfbench {

using namespace cods;

namespace {

constexpr u64 kScenarios = 2000;
constexpr u64 kStride = 10;
const char* const kKnownDefect = "merged placement is invalid";
// Seeds in [1, 2000] that fail the schedule oracle with the known defect.
const std::set<u64> kKnownFailingSeeds = {273, 355, 683, 1076, 1441, 1945};

wfgen::GenParams faulty_params() {
  wfgen::GenParams params;
  params.p_fault = 1.0;
  return params;
}

std::vector<wfgen::ScenarioSpec> generate_range(u64 base) {
  std::vector<wfgen::ScenarioSpec> specs;
  specs.reserve(kScenarios);
  const wfgen::GenParams params = faulty_params();
  for (u64 s = base; s < base + kScenarios; ++s) {
    specs.push_back(wfgen::generate(s, params));
  }
  return specs;
}

std::string set_digest(const std::vector<wfgen::ScenarioSpec>& specs) {
  u64 h = 1469598103934665603ull;
  for (const wfgen::ScenarioSpec& spec : specs) {
    for (const char c : spec.json()) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  return std::to_string(h);
}

u64 rank_tasks(const wfgen::ScenarioSpec& spec) {
  u64 n = 0;
  for (const wfgen::GenApp& app : spec.apps) {
    n += static_cast<u64>(app.ntasks());
  }
  return n;
}

std::vector<i32> consumer_apps(const wfgen::ScenarioSpec& spec) {
  std::vector<i32> out;
  for (const wfgen::GenApp& app : spec.apps) {
    if (!app.consumes.empty()) out.push_back(app.app_id);
  }
  return out;
}

std::string counters_text(const ByteCounters& c) {
  return std::to_string(c.shm_bytes) + "/" + std::to_string(c.net_bytes) +
         "/" + std::to_string(c.transfers);
}

/// Exact text of everything deterministic about one enactment.
std::string fingerprint(const wfgen::EnactResult& r) {
  std::ostringstream os;
  os << exact(r.analysis.total_time) << ' ' << counters_text(r.total_inter)
     << ' ' << counters_text(r.total_intra) << ' '
     << counters_text(r.total_control) << ' ' << r.stored_bytes << ' '
     << r.mismatches << ' ' << r.journal.size() << ' ' << r.heartbeats << ' '
     << r.heartbeats_dropped << ' ' << r.spans.size();
  for (const WaveReport& w : r.reports) {
    os << " w" << w.attempts << ':' << w.failed_nodes.size() << ':'
       << w.reexecuted_tasks << ':' << w.recovered_bytes;
  }
  for (const i32 node : r.dead_nodes) os << " d" << node;
  return os.str();
}

/// What the first pass keeps of one scenario's enactment.
struct Outcome {
  std::string fingerprint;  ///< empty when the enactment threw
  bool failed = false;
  ByteCounters inter, intra, control;
  double makespan_s = 0.0;
  double retrieve_s = 0.0;
  u64 spans = 0;
  u64 ledger_spans = 0;
  CategorySeconds critical;
};

/// The same scenario enacted through WorkflowServer::run directly, the
/// way wfgen::enact sets it up, to read the counters EnactResult does
/// not carry (Metrics named counters, SimStats) and to checkpoint the
/// final space.
struct Replica {
  double run_s = 0.0;  ///< host seconds of WorkflowServer::run alone
  ServerCounters counters;
  ByteCounters inter, intra, control;
  double save_ms = 0.0;
  double load_ms = 0.0;
  u64 saved = 0;
  u64 loaded = 0;
};

AppFn role_fn(const wfgen::GenApp& app,
              const std::shared_ptr<std::atomic<u64>>& mismatches) {
  using wfgen::AppRole;
  switch (app.role) {
    case AppRole::kPatternProducer:
      return make_pattern_producer(
          {app.produces, app.versions, true, app.pattern_seed});
    case AppRole::kPatternConsumer:
      return make_pattern_consumer({app.consumes, app.versions, true,
                                    app.consume_seed, mismatches, nullptr});
    case AppRole::kPatternRelay: {
      AppFn consume = make_pattern_consumer({app.consumes, app.versions, true,
                                             app.consume_seed, mismatches,
                                             nullptr});
      AppFn produce = make_pattern_producer(
          {app.produces, app.versions, true, app.pattern_seed});
      return [consume, produce](AppCtx& ctx) {
        consume(ctx);
        produce(ctx);
      };
    }
    case AppRole::kStencil:
      return make_stencil_simulation({app.produces[0], app.versions, 0.1});
    case AppRole::kMoments:
      return make_moments_analysis(
          {app.consumes[0], app.versions,
           std::make_shared<std::vector<Moments>>(app.versions)});
    case AppRole::kHistogram:
      return make_histogram_analysis(
          {app.consumes[0], app.versions, 0.0, 1.0, 16,
           std::make_shared<std::vector<std::vector<i64>>>(app.versions)});
    case AppRole::kDownsampler:
      return make_downsampler(
          {app.consumes[0], app.produces[0], app.versions, app.factor});
  }
  throw Error("unknown app role");
}

Replica replicate(const wfgen::ScenarioSpec& spec) {
  Replica out;
  Cluster cluster(spec.cluster);
  Metrics metrics;
  WorkflowServer server(cluster, metrics, spec.domain());
  auto mismatches = std::make_shared<std::atomic<u64>>(0);
  std::set<i32> bundled;
  for (const auto& bundle : spec.bundles) {
    bundled.insert(bundle.begin(), bundle.end());
  }
  for (const wfgen::GenApp& app : spec.apps) {
    AppSpec as;
    as.app_id = app.app_id;
    as.name = app.name;
    as.elem_size = spec.elem_size;
    as.dec = Decomposition(spec.extents, app.procs, app.dist, app.block);
    const std::string consumes_var =
        (!app.consumes.empty() && !bundled.count(app.app_id)) ? app.consumes[0]
                                                              : "";
    server.register_app(std::move(as), role_fn(app, mismatches), consumes_var);
  }
  TransferLog journal(wfgen::EnactOptions{}.journal_capacity);
  FaultInjector injector(spec.fault);
  WorkflowOptions wf;
  wf.seed = spec.seed;
  wf.exec_mode = ExecMode::kSimulate;
  wf.exec_pool_size = wfgen::EnactOptions{}.exec_pool_size;
  wf.transfer_log = &journal;
  if (spec.faulty) {
    wf.fault = &injector;
    wf.retry.max_retries = 50;
    wf.retry.op_timeout = std::chrono::seconds(2);
  }
  wf.health.speculation = spec.speculation;
  out.run_s = time_s([&] { server.run(spec.dag(), wf); });

  out.counters = ServerCounters::capture(server, metrics);
  out.inter = metrics.total(TrafficClass::kInterApp);
  out.intra = metrics.total(TrafficClass::kIntraApp);
  out.control = metrics.total(TrafficClass::kControl);

  std::stringstream ckpt;
  out.save_ms =
      1e3 * time_s([&] { out.saved = server.space().save_checkpoint(ckpt); });
  Metrics restore_metrics;
  CodsSpace restored(cluster, restore_metrics, spec.domain());
  out.load_ms =
      1e3 * time_s([&] { out.loaded = restored.load_checkpoint(ckpt); });
  return out;
}

}  // namespace

void run_wfgen_faults(const RunConfig& config, SpanLog& spans,
                      RunReport& report) {
  // Bounded so the window never wraps around the u64 seed space.
  const u64 base = 1 + (config.seed % (u64{1} << 40)) * kStride;
  LoopSamples loop;
  std::vector<wfgen::ScenarioSpec> specs;
  std::string digest;
  auto setup = [&] {
    BenchSpan span(spans, "setup");
    loop.setup_s.push_back(time_s([&] { specs = generate_range(base); }));
    const std::string d = set_digest(specs);
    report.check(digest.empty() || d == digest,
                 "wfgen-faults: the same seed generated a different spec set");
    digest = d;
  };
  setup();
  report.check(set_digest(generate_range(base + kStride)) != digest,
               "wfgen-faults: the next seed generates the same spec set");
  u64 known_in_range = 0;
  for (const u64 s : kKnownFailingSeeds) {
    known_in_range += (s >= base && s < base + kScenarios) ? 1 : 0;
  }

  // First pass, untimed: oracles on every scenario; later passes must
  // repeat each outcome exactly.
  std::vector<Outcome> outcomes(specs.size());
  std::vector<u64> failing;
  {
    BenchSpan span(spans, "warmup");
    for (size_t i = 0; i < specs.size(); ++i) {
      Outcome& o = outcomes[i];
      try {
        std::optional<BenchSpan> enact_span(std::in_place, spans, "enact");
        const wfgen::EnactResult r = wfgen::enact(specs[i]);
        enact_span.reset();
        BenchSpan verify_span(spans, "verify");
        o.fingerprint = fingerprint(r);
        o.inter = r.total_inter;
        o.intra = r.total_intra;
        o.control = r.total_control;
        o.makespan_s = r.analysis.total_time;
        o.retrieve_s = modeled_retrieve(r.spans, consumer_apps(specs[i]));
        o.spans = r.spans.size();
        o.ledger_spans = r.analysis.ledger_spans;
        o.critical = r.analysis.critical;
        const wfgen::OracleReport oracles = wfgen::check_oracles(specs[i], r);
        o.failed = !oracles.ok() || r.mismatches != 0;
        const std::string why = oracles.to_string();
        report.check(!o.failed || why.find(kKnownDefect) != std::string::npos,
                     "wfgen-faults: seed " + std::to_string(specs[i].seed) +
                         " failed outside the known defect: " + why);
      } catch (const std::exception& e) {
        o.failed = true;
        report.check(false, "wfgen-faults: seed " +
                                std::to_string(specs[i].seed) +
                                " threw: " + e.what());
      }
      if (o.failed) failing.push_back(specs[i].seed);
    }
  }
  std::string failing_text;
  for (const u64 s : failing) failing_text += " " + std::to_string(s);
  report.note("seeds [" + std::to_string(base) + ", " +
              std::to_string(base + kScenarios) + "), failing:" +
              (failing.empty() ? std::string(" none") : failing_text) + " (" +
              std::to_string(known_in_range) +
              " known-defect seeds of [1, 2000] in range)");

  auto timed_loop = [&](LoopSamples& samples, double seconds, bool fresh) {
    const auto start = Clock::now();
    do {
      if (fresh) setup();
      fresh = true;
      for (size_t i = 0; i < specs.size(); ++i) {
        BenchSpan span(spans, "enact");
        ++samples.attempted;
        samples.tasks += rank_tasks(specs[i]);
        bool failed = outcomes[i].failed;
        try {
          wfgen::EnactResult r;
          samples.op_s.push_back(time_s([&] { r = wfgen::enact(specs[i]); }));
          samples.op_id.push_back(i);
          const bool same = fingerprint(r) == outcomes[i].fingerprint;
          report.check(same, "wfgen-faults: seed " +
                                 std::to_string(specs[i].seed) +
                                 " changed between passes");
          failed = failed || !same;
        } catch (const std::exception&) {
          failed = true;
        }
        if (failed) ++samples.failed;
      }
    } while (seconds_since(start) < seconds);
  };

  if (!config.trace) {
    timed_loop(loop, config.seconds, false);
    loop.peak_rss_mb = peak_rss_mb();
    Modeled modeled;
    for (const Outcome& o : outcomes) {
      modeled.net_bytes += static_cast<double>(o.inter.net_bytes);
      modeled.intra_net_bytes += static_cast<double>(o.intra.net_bytes);
      modeled.makespan_s += o.makespan_s;
      modeled.retrieve_s += o.retrieve_s;
    }
    const double n = static_cast<double>(specs.size());
    modeled.net_bytes /= n;
    modeled.intra_net_bytes /= n;
    modeled.makespan_s /= n;
    modeled.retrieve_s /= n;
    report_end_to_end(report, loop, modeled);
    return;
  }

  timed_loop(loop, config.seconds, false);
  report.attempted = loop.attempted;
  report.failed = loop.failed;

  // Per-layer rows are totals over one pass of the seed range.
  u64 span_count = 0, ledger = 0;
  CategorySeconds critical;
  for (const Outcome& o : outcomes) {
    span_count += o.spans;
    ledger += o.ledger_spans;
    critical += o.critical;
  }
  MetricTable& t = report.per_layer;
  t.set("trace.spans", static_cast<double>(span_count), "count");
  t.set("trace.ledger_spans", static_cast<double>(ledger), "count");
  t.set("phase.compute_s", critical.compute, "s");
  t.set("phase.shm_s", critical.shm, "s");
  t.set("phase.net_s", critical.net, "s");
  t.set("phase.lock_wait_s", critical.lock_wait, "s");
  t.set("phase.redistribute_s", critical.redistribute, "s");
  t.set("phase.control_s", critical.control, "s");

  BenchSpan span(spans, "probe.replica");
  ServerCounters totals;
  double save_ms = 0.0, load_ms = 0.0, replica_s = 0.0;
  u64 replicated = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (outcomes[i].fingerprint.empty()) continue;
    Replica rep;
    try {
      rep = replicate(specs[i]);
    } catch (const std::exception& e) {
      report.check(false, "wfgen-faults: replica of seed " +
                              std::to_string(specs[i].seed) + " threw");
      continue;
    }
    const Outcome& o = outcomes[i];
    report.check(rep.inter == o.inter && rep.intra == o.intra &&
                     rep.control == o.control,
                 "wfgen-faults: replica of seed " +
                     std::to_string(specs[i].seed) +
                     " moved other bytes than wfgen::enact");
    report.check(rep.saved == rep.loaded,
                 "wfgen-faults: checkpoint restore lost objects");
    totals += rep.counters;
    replica_s += rep.run_s;
    ++replicated;
    save_ms += rep.save_ms;
    load_ms += rep.load_ms;
  }
  totals.report(report, replica_s);
  // wfgen::enact always traces (and exports and analyses its trace), so
  // its overhead shows against the untraced replica of the same scenarios:
  // mean enact time per scenario over mean bare run time per scenario.
  double enact_s = 0.0;
  for (const double s : loop.op_s) enact_s += s;
  if (replicated > 0 && replica_s > 0.0 && !loop.op_s.empty()) {
    t.set("trace.overhead_ratio",
          (enact_s / static_cast<double>(loop.op_s.size())) /
              (replica_s / static_cast<double>(replicated)),
          "ratio");
  }
  t.set("ckpt.save_ms", save_ms, "ms");
  t.set("ckpt.load_ms", load_ms, "ms");
}

}  // namespace perfbench
