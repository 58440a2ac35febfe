// Shared plumbing of the CoDS benchmark: host clock, sample statistics,
// the metric tables and checks a run reports, the benchmark-side span log
// of traced runs, and the helpers every workload uses to turn its samples
// into the end-to-end metrics (README.md lists them with units).
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace/critical_path.hpp"
#include "workflow/dag.hpp"

namespace perfbench {

using cods::i32;
using cods::i64;
using cods::u64;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times one call of `fn` in host seconds.
template <typename Fn>
double time_s(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

double median(std::vector<double> values);

/// Highest percentile of `values` that still has at least ten samples
/// above it. With fewer than twenty samples that percentile would lie
/// below the median, so the maximum is reported as percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};
Tail tail(std::vector<double> values);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< where a traced run writes its span log
};

/// Ordered name -> (value, unit) table.
class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Benchmark-side spans of a traced run: name, host start/end and parent,
/// kept in memory and written out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  void begin(const std::string& name);
  void end();
  bool enabled() const { return enabled_; }

  /// Writes every span as one JSON object per line.
  bool write(const std::string& path) const;
  /// Total and self host seconds per span name (self = duration minus the
  /// part covered by child spans), one line per name.
  std::string self_time_report() const;

 private:
  struct Span {
    u64 id = 0;
    u64 parent = 0;
    std::string name;
    double start = 0.0;
    double end = -1.0;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span on a SpanLog (no-op when the log is disabled).
class BenchSpan {
 public:
  BenchSpan(SpanLog& log, const std::string& name) : log_(&log) {
    if (log_->enabled()) log_->begin(name);
  }
  ~BenchSpan() {
    if (log_->enabled()) log_->end();
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Everything one run reports.
struct RunReport {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> lines;     ///< human-readable notes
  std::vector<std::string> failures;  ///< failed checks
  MetricTable end_to_end;
  MetricTable per_layer;

  /// Records a check; a failing one makes the run incorrect.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { lines.push_back(line); }
};

/// Host-side samples of a closed loop: one client, the next op starts
/// when the previous one has finished.
struct LoopSamples {
  std::vector<double> op_s;     ///< host seconds per timed op
  /// Which member of a cycled op set each sample timed (empty when every
  /// op is the same workflow). With a set, wf_ms.p50 is the median over
  /// the set of each op's median time: a plain median of a few discrete
  /// op sizes would jump between neighbouring sizes from run to run.
  std::vector<size_t> op_id;
  std::vector<double> setup_s;  ///< host seconds per set-up
  u64 tasks = 0;                ///< rank-tasks enacted or planned
  u64 attempted = 0;
  u64 failed = 0;
  double peak_rss_mb = 0.0;  ///< read when the timed loop ends
};

/// Deterministic per-op figures of a workload (virtual time and bytes).
struct Modeled {
  double net_bytes = 0.0;        ///< coupled bytes over the network
  double intra_net_bytes = 0.0;  ///< intra-app halo bytes over the network
  double makespan_s = 0.0;
  double retrieve_s = 0.0;
};

/// Fills the end-to-end table and the op counts from a loop and its
/// modeled figures.
void report_end_to_end(RunReport& report, const LoopSamples& loop,
                       const Modeled& modeled);

/// Modelled retrieve time of one traced enactment: per consumer task, the
/// summed duration of its top-level get operations; the slowest consumer
/// task sets the value.
double modeled_retrieve(const std::vector<cods::TraceSpan>& spans,
                        const std::vector<i32>& consumer_apps);

/// Per-layer rows derived from one traced enactment: span counts and the
/// critical-path phase split.
void report_trace_layer(RunReport& report,
                        const std::vector<cods::TraceSpan>& spans,
                        const cods::TraceAnalysis& analysis);

/// Ratio of traced to untraced median op time.
void report_trace_overhead(RunReport& report, const LoopSamples& untraced,
                           const LoopSamples& traced);

/// Rank-tasks of a set of application specs.
u64 task_count(const std::vector<cods::AppSpec>& apps);

/// Exact printable form of a double (round-trips).
std::string exact(double value);

/// One workload entry point.
using WorkloadFn = std::function<void(const RunConfig&, SpanLog&, RunReport&)>;

void run_insitu_live(const RunConfig& config, SpanLog& spans,
                     RunReport& report);
void run_seq_scale(const RunConfig& config, SpanLog& spans,
                   RunReport& report);
void run_paper_plan(const RunConfig& config, SpanLog& spans,
                    RunReport& report);
void run_wfgen_faults(const RunConfig& config, SpanLog& spans,
                      RunReport& report);

}  // namespace perfbench
