#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values) {
  Tail out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n < 20) {
    out.value = values.back();
    out.percentile = 100.0;
    return out;
  }
  // values[n - 11] has exactly ten samples above it.
  out.value = values[n - 11];
  out.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void MetricTable::set(const std::string& name, double value,
                      const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void SpanLog::begin(const std::string& name) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.name = name;
  span.start = seconds_since(origin_);
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
}

void SpanLog::end() {
  if (open_.empty()) return;
  spans_[open_.back()].end = seconds_since(origin_);
  open_.pop_back();
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 s.id, s.parent, s.name.c_str(), s.start, s.end);
  }
  return std::fclose(out) == 0;
}

std::string SpanLog::self_time_report() const {
  std::map<u64, double> child_time;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += s.end - s.start;
  }
  struct Row {
    double total = 0.0;
    double self = 0.0;
    u64 count = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    Row& row = rows[s.name];
    const double duration = s.end - s.start;
    row.total += duration;
    row.self += duration - child_time[s.id];
    ++row.count;
  }
  std::string out;
  char line[256];
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof(line),
                  "span %-28s n=%-6" PRIu64 " total=%.6f s self=%.6f s\n",
                  name.c_str(), row.count, row.total, row.self);
    out += line;
  }
  return out;
}

void RunReport::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

void report_end_to_end(RunReport& report, const LoopSamples& loop,
                       const Modeled& modeled) {
  std::vector<double> op_ms;
  op_ms.reserve(loop.op_s.size());
  double busy_s = 0.0;
  for (const double s : loop.op_s) {
    op_ms.push_back(1e3 * s);
    busy_s += s;
  }
  double p50 = median(op_ms);
  if (!loop.op_id.empty()) {
    std::map<size_t, std::vector<double>> per_op;
    for (size_t i = 0; i < op_ms.size(); ++i) {
      per_op[loop.op_id[i]].push_back(op_ms[i]);
    }
    std::vector<double> op_medians;
    for (const auto& [id, samples] : per_op) {
      op_medians.push_back(median(samples));
    }
    p50 = median(op_medians);
  }
  const Tail t = tail(op_ms);
  report.end_to_end.set("wf_ms.p50", p50, "ms");
  report.end_to_end.set("wf_ms.tail", t.value, "ms");
  report.end_to_end.set("tasks_per_s",
                        busy_s > 0.0 ? static_cast<double>(loop.tasks) / busy_s
                                     : 0.0,
                        "1/s");
  report.end_to_end.set("setup_s", median(loop.setup_s), "s");
  report.end_to_end.set("peak_rss_mb", loop.peak_rss_mb, "MiB");
  report.end_to_end.set("net_bytes", modeled.net_bytes, "B");
  report.end_to_end.set("intra_net_bytes", modeled.intra_net_bytes, "B");
  report.end_to_end.set("modeled_makespan_s", modeled.makespan_s, "s");
  report.end_to_end.set("modeled_retrieve_s", modeled.retrieve_s, "s");
  char line[160];
  std::snprintf(line, sizeof(line),
                "wf_ms.tail is p%.1f of N=%zu timed ops; %zu set-ups",
                t.percentile, t.samples, loop.setup_s.size());
  report.note(line);
  report.attempted = loop.attempted;
  report.failed = loop.failed;
}

double modeled_retrieve(const std::vector<cods::TraceSpan>& spans,
                        const std::vector<i32>& consumer_apps) {
  const std::set<i32> consumers(consumer_apps.begin(), consumer_apps.end());
  std::set<u64> consumer_tasks;
  for (const cods::TraceSpan& s : spans) {
    if (s.cat == cods::SpanCategory::kTask && consumers.count(s.app_id)) {
      consumer_tasks.insert(s.id);
    }
  }
  std::map<u64, double> per_task;
  for (const cods::TraceSpan& s : spans) {
    if (s.cat == cods::SpanCategory::kGet && consumer_tasks.count(s.parent)) {
      per_task[s.parent] += s.duration;
    }
  }
  double slowest = 0.0;
  for (const auto& [task, seconds] : per_task) {
    slowest = std::max(slowest, seconds);
  }
  return slowest;
}

void report_trace_layer(RunReport& report,
                        const std::vector<cods::TraceSpan>& spans,
                        const cods::TraceAnalysis& analysis) {
  report.per_layer.set("trace.spans", static_cast<double>(spans.size()),
                       "count");
  report.per_layer.set("trace.ledger_spans",
                       static_cast<double>(analysis.ledger_spans), "count");
  const cods::CategorySeconds& c = analysis.critical;
  report.per_layer.set("phase.compute_s", c.compute, "s");
  report.per_layer.set("phase.shm_s", c.shm, "s");
  report.per_layer.set("phase.net_s", c.net, "s");
  report.per_layer.set("phase.lock_wait_s", c.lock_wait, "s");
  report.per_layer.set("phase.redistribute_s", c.redistribute, "s");
  report.per_layer.set("phase.control_s", c.control, "s");
}

void report_trace_overhead(RunReport& report, const LoopSamples& untraced,
                           const LoopSamples& traced) {
  const double base = median(untraced.op_s);
  report.per_layer.set("trace.overhead_ratio",
                       base > 0.0 ? median(traced.op_s) / base : 0.0,
                       "ratio");
}

u64 task_count(const std::vector<cods::AppSpec>& apps) {
  u64 n = 0;
  for (const cods::AppSpec& app : apps) n += static_cast<u64>(app.ntasks());
  return n;
}

std::string exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
