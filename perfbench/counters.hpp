// Public counters of one enactment through WorkflowServer::run: SimStats,
// the Metrics registry's byte ledger and named counters, and the
// engine's WaveReports. Captured after a run, compared exactly across
// repeated ops (determinism) and reported as per-layer rows.
#pragma once

#include <string>

#include "harness.hpp"
#include "workflow/engine.hpp"

namespace perfbench {

struct ServerCounters {
  cods::SimStats sim;
  cods::ByteCounters inter;  ///< all apps, inter-app class
  cods::ByteCounters intra;  ///< all apps, intra-app class
  u64 coalesced_ops = 0;
  u64 lookup_hit = 0;
  u64 lookup_miss = 0;
  u64 heartbeats = 0;
  u64 heartbeats_dropped = 0;
  u64 retries = 0;
  u64 exhausted = 0;
  u64 waves = 0;
  u64 attempts = 0;
  u64 reexecuted_tasks = 0;
  u64 recovered_bytes = 0;
  u64 detection_rounds = 0;
  double detection_latency_s = 0.0;  ///< worst wave
  u64 stored_bytes = 0;

  static ServerCounters capture(cods::WorkflowServer& server,
                                const cods::Metrics& metrics);

  /// Sums event counters; keeps the maximum of high-water marks.
  ServerCounters& operator+=(const ServerCounters& other);

  /// Exact text of every deterministic field.
  std::string fingerprint() const;

  /// Per-layer rows: sim.*, comm.*, dart.* counts, dht.* counts,
  /// engine.*, health.*, fault.*. `op_s` is the median host seconds of
  /// the op these counters describe (for sim.ns_per_switch).
  void report(RunReport& report, double op_s) const;
};

}  // namespace perfbench
