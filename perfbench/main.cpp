// CoDS benchmark program: runs one named workload for a fixed host time
// and prints every metric by name with its unit, the checks on the
// program's outputs, and as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). README.md describes workloads, metrics and layers.
//
//   cods_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans-out FILE]
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <set>
#include <string>

#include "harness.hpp"

using namespace perfbench;

namespace {

using MetricList = std::vector<std::pair<const char*, const char*>>;

/// Every per-layer metric and its unit. A workload that does not
/// exercise a layer leaves its rows at 0.
const MetricList kPerLayer = {
    {"sim.switches", "count"},
    {"sim.ns_per_switch", "ns"},
    {"sim.notifies", "count"},
    {"sim.timeouts", "count"},
    {"sim.mutex_waits", "count"},
    {"sim.peak_blocked", "count"},
    {"sim.ready_rebuilds", "count"},
    {"sim.arena_mb", "MiB"},
    {"executor.dispatch_us", "us"},
    {"executor.escalations", "count"},
    {"executor.peak_live", "count"},
    {"executor.steals", "count"},
    {"comm.intra_transfers", "count"},
    {"comm.intra_shm_bytes", "B"},
    {"dart.inter_transfers", "count"},
    {"dart.shm_bytes", "B"},
    {"dart.coalesced_ops", "count"},
    {"dart.pull_us.shm_small", "us"},
    {"dart.pull_us.shm_large", "us"},
    {"dart.pull_us.net_small", "us"},
    {"dart.pull_us.net_large", "us"},
    {"dart.copy_gbps", "GB/s"},
    {"metrics.record_ns", "ns"},
    {"cost_model.batch_us", "us"},
    {"dht.lookup_hit", "count"},
    {"dht.lookup_miss", "count"},
    {"dht.hit_ratio", "ratio"},
    {"dht.query_us", "us"},
    {"sfc.encode_ns", "ns"},
    {"sfc.box_spans_us", "us"},
    {"geometry.redistribution_ms", "ms"},
    {"geometry.transfer_volumes", "count"},
    {"geometry.max_fan_in", "count"},
    {"partition.kway_ms", "ms"},
    {"partition.edge_cut_bytes", "B"},
    {"mapping.server_ms", "ms"},
    {"mapping.client_ms", "ms"},
    {"engine.waves", "count"},
    {"engine.attempts", "count"},
    {"engine.reexecuted_tasks", "count"},
    {"engine.recovered_bytes", "B"},
    {"health.heartbeats", "count"},
    {"health.heartbeats_dropped", "count"},
    {"health.detection_rounds", "count"},
    {"health.detection_latency_s", "s"},
    {"fault.retries", "count"},
    {"fault.exhausted", "count"},
    {"ckpt.save_ms", "ms"},
    {"ckpt.load_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
    {"trace.ledger_spans", "count"},
    {"phase.compute_s", "s"},
    {"phase.shm_s", "s"},
    {"phase.net_s", "s"},
    {"phase.lock_wait_s", "s"},
    {"phase.redistribute_s", "s"},
    {"phase.control_s", "s"},
    {"fail_ratio", "ratio"},
};

const MetricList kEndToEnd = {
    {"wf_ms.p50", "ms"},
    {"wf_ms.tail", "ms"},
    {"tasks_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"net_bytes", "B"},
    {"intra_net_bytes", "B"},
    {"modeled_makespan_s", "s"},
    {"modeled_retrieve_s", "s"},
};

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table = {
      {"insitu-live", run_insitu_live},
      {"seq-scale", run_seq_scale},
      {"paper-plan", run_paper_plan},
      {"wfgen-faults", run_wfgen_faults},
  };
  return table;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE]\n",
               argv0);
  return 2;
}

/// Orders `table` by `canon`, fills rows the workload did not set with 0,
/// and fails the run on rows outside the canonical set or with a
/// non-finite value.
MetricTable canonical(const MetricTable& table, const MetricList& canon,
                      bool fill_missing, RunReport& report) {
  std::map<std::string, MetricTable::Entry> got;
  for (const MetricTable::Entry& e : table.entries()) got[e.name] = e;
  MetricTable out;
  std::set<std::string> known;
  for (const auto& [name, unit] : canon) {
    known.insert(name);
    const auto it = got.find(name);
    if (it == got.end()) {
      report.check(fill_missing, std::string("metric not measured: ") + name);
      out.set(name, 0.0, unit);
      continue;
    }
    report.check(it->second.unit == unit,
                 std::string("metric unit mismatch: ") + name);
    report.check(std::isfinite(it->second.value),
                 std::string("metric not finite: ") + name);
    out.set(name, std::isfinite(it->second.value) ? it->second.value : 0.0,
            unit);
  }
  for (const auto& [name, entry] : got) {
    report.check(known.count(name) > 0, "unknown metric: " + name);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
      have_trace = true;
    } else if (flag == "--spans-out") {
      config.spans_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  const auto workload = workloads().find(config.workload);
  if (argc % 2 == 0 || workload == workloads().end() || !have_seed ||
      !have_seconds || !have_trace || !(config.seconds > 0.0)) {
    return usage(argv[0]);
  }

  std::printf("workload %s, seed %" PRIu64 ", %.3g s, trace %d\n",
              config.workload.c_str(), config.seed, config.seconds,
              config.trace ? 1 : 0);
  std::fflush(stdout);

  RunReport report;
  SpanLog spans(config.trace);
  try {
    BenchSpan span(spans, config.workload);
    workload->second(config, spans, report);
  } catch (const std::exception& e) {
    report.check(false, std::string("workload threw: ") + e.what());
  }

  // Failed ops over attempted ops. Printed in every run but kept out of
  // the bounded end-to-end set: it reads 0 on most workloads.
  report.per_layer.set("fail_ratio",
                       report.attempted > 0
                           ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 0.0,
                       "ratio");
  const MetricTable metrics =
      config.trace ? canonical(report.per_layer, kPerLayer, true, report)
                   : canonical(report.end_to_end, kEndToEnd, false, report);
  if (!config.trace) {
    std::printf("metric %-28s %.10g ratio\n", "fail_ratio",
                report.per_layer.entries().back().value);
  }
  for (const std::string& line : report.lines) {
    std::printf("note %s\n", line.c_str());
  }
  if (config.trace) {
    std::printf("%s", spans.self_time_report().c_str());
    if (!config.spans_out.empty()) {
      report.check(spans.write(config.spans_out),
                   "cannot write spans to " + config.spans_out);
    }
  }
  for (const MetricTable::Entry& e : metrics.entries()) {
    std::printf("metric %-28s %.10g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  if (report.attempted == 0) {
    report.check(false, "no op attempted");
    report.attempted = 1;
    report.failed = 1;
  }
  std::set<std::string> seen;
  for (const std::string& f : report.failures) {
    if (seen.insert(f).second) std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              report.correct ? "true" : "false", report.attempted,
              report.failed);
  const char* sep = "";
  for (const MetricTable::Entry& e : metrics.entries()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                e.name.c_str(), e.value, e.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
