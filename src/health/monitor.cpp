#include "health/monitor.hpp"

#include "trace/trace.hpp"

namespace cods {

HealthMonitor::HealthMonitor(HealthConfig config, FaultInjector& injector,
                             HybridDart& dart, i32 num_nodes)
    : config_(config),
      injector_(&injector),
      dart_(&dart),
      detector_(config.detector, num_nodes),
      confirmed_(static_cast<size_t>(num_nodes), false),
      heartbeats_id_(dart.metrics().intern("health.heartbeats")),
      dropped_id_(dart.metrics().intern("health.heartbeats_dropped")),
      rounds_id_(dart.metrics().intern("health.detection_rounds")),
      latency_id_(dart.metrics().intern("health.detection_latency")) {}

void HealthMonitor::sweep_round() {
  const double period = config_.detector.heartbeat_period;
  now_ += period;
  // The server-side collection point: heartbeats address node 0, core 0
  // (where the lookup service master lives), like any other control ping.
  const CoreLoc sink{0, 0};
  Metrics& metrics = dart_->metrics();
  for (i32 node = 0; node < detector_.num_nodes(); ++node) {
    if (confirmed_[static_cast<size_t>(node)]) continue;
    const HeartbeatFate fate = injector_->heartbeat_fate(node, round_);
    if (fate.crashed) {
      detector_.evaluate(node, now_, /*missed=*/true);
      continue;
    }
    // The heartbeat was emitted: its bytes crossed the fabric whether or
    // not it was delivered, so both outcomes are accounted (the same
    // stance admit_op takes for failed transfer attempts).
    const CoreLoc src{node, 0};
    const u64 bytes = static_cast<u64>(dart_->cost_model().params().rpc_bytes);
    const double time = dart_->cost_model().rpc_time(src, sink, 1);
    record_transfer(metrics, /*app_id=*/0, TrafficClass::kControl, src, sink,
                    bytes, time);
    metrics.add_count(0, heartbeats_id_);
    if (fate.dropped) {
      metrics.add_count(0, dropped_id_);
      detector_.evaluate(node, now_, /*missed=*/true);
      continue;
    }
    detector_.heartbeat(node, now_ + fate.delay_frac * period);
    detector_.evaluate(node, now_, /*missed=*/false);
  }
  ++round_;
}

std::vector<i32> HealthMonitor::run_detection() {
  ScopedSpan span(SpanCategory::kHealth, 0,
                  static_cast<u32>(detector_.num_nodes()));
  const double start = now_;
  std::vector<i32> newly;
  i32 rounds = 0;
  last_latency_ = 0.0;
  while (rounds < kMaxDetectionRounds) {
    sweep_round();
    ++rounds;
    for (i32 node = 0; node < detector_.num_nodes(); ++node) {
      if (confirmed_[static_cast<size_t>(node)] ||
          detector_.state(node) != NodeHealth::kDead) {
        continue;
      }
      confirmed_[static_cast<size_t>(node)] = true;
      newly.push_back(node);
      // Feed the verdict back so the transport fails fast on this node
      // from now on. Idempotent for scheduled crashes (already dead in
      // the injector); for a detector-only declaration it records the
      // administrative kill in the replay trace.
      injector_->declare_dead(node);
      const double latency =
          detector_.declared_dead_time(node) -
          detector_.first_missing_time(node);
      last_latency_ = std::max(last_latency_, latency);
      dart_->metrics().add_time(0, latency_id_, latency);
    }
    // Resolved: every node is settled (alive or dead), nothing sits in
    // between, and nobody is silently missing heartbeats (a freshly
    // crashed node spends its first rounds below the suspect threshold —
    // still nominally kAlive — so the miss counter, not just the state,
    // must clear before the pass may stop).
    bool pending = detector_.unsettled();
    for (i32 node = 0; !pending && node < detector_.num_nodes(); ++node) {
      pending = !confirmed_[static_cast<size_t>(node)] &&
                detector_.consecutive_missed(node) > 0;
    }
    if (!pending) break;
  }
  last_rounds_ = rounds;
  dart_->metrics().add_count(0, rounds_id_, static_cast<u64>(rounds));
  span.close(now_ - start);
  return newly;
}

void HealthMonitor::settle() {
  if (!detector_.unsettled()) return;
  ScopedSpan span(SpanCategory::kHealth, 0, 0);
  const double start = now_;
  for (i32 r = 0; r < kMaxDetectionRounds && detector_.unsettled(); ++r) {
    sweep_round();
  }
  span.close(now_ - start);
}

std::vector<i32> HealthMonitor::confirmed_dead() const {
  std::vector<i32> out;
  for (size_t i = 0; i < confirmed_.size(); ++i) {
    if (confirmed_[i]) out.push_back(static_cast<i32>(i));
  }
  return out;
}

std::vector<i32> HealthMonitor::untrusted() const {
  std::vector<i32> out;
  for (i32 node = 0; node < detector_.num_nodes(); ++node) {
    const NodeHealth s = detector_.state(node);
    if (s == NodeHealth::kQuarantined || s == NodeHealth::kProbation) {
      out.push_back(node);
    }
  }
  return out;
}

}  // namespace cods
