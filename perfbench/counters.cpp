#include "counters.hpp"

#include <algorithm>
#include <sstream>

namespace perfbench {

using namespace cods;

ServerCounters ServerCounters::capture(WorkflowServer& server,
                                       const Metrics& metrics) {
  ServerCounters c;
  c.sim = server.last_sim_stats();
  c.inter = metrics.total(TrafficClass::kInterApp);
  c.intra = metrics.total(TrafficClass::kIntraApp);
  c.coalesced_ops = metrics.total_count("dart.coalesced_ops");
  c.lookup_hit = metrics.total_count("dht.lookup_hit");
  c.lookup_miss = metrics.total_count("dht.lookup_miss");
  c.heartbeats = metrics.total_count("health.heartbeats");
  c.heartbeats_dropped = metrics.total_count("health.heartbeats_dropped");
  c.retries = metrics.total_count("fault.retries");
  c.exhausted = metrics.total_count("fault.exhausted");
  for (const WaveReport& w : server.wave_reports()) {
    ++c.waves;
    c.attempts += static_cast<u64>(w.attempts);
    c.reexecuted_tasks += static_cast<u64>(w.reexecuted_tasks);
    c.recovered_bytes += w.recovered_bytes;
    c.detection_rounds += static_cast<u64>(w.detection_rounds);
    c.detection_latency_s =
        std::max(c.detection_latency_s, w.detection_latency);
  }
  c.stored_bytes = server.space().stored_bytes();
  return c;
}

ServerCounters& ServerCounters::operator+=(const ServerCounters& o) {
  sim.fibers += o.sim.fibers;
  sim.switches += o.sim.switches;
  sim.notifies += o.sim.notifies;
  sim.timeouts += o.sim.timeouts;
  sim.mutex_waits += o.sim.mutex_waits;
  sim.cancellations += o.sim.cancellations;
  sim.ready_rebuilds += o.sim.ready_rebuilds;
  sim.peak_blocked = std::max(sim.peak_blocked, o.sim.peak_blocked);
  sim.stacks = std::max(sim.stacks, o.sim.stacks);
  sim.final_vtime = std::max(sim.final_vtime, o.sim.final_vtime);
  sim.arena_bytes = std::max(sim.arena_bytes, o.sim.arena_bytes);
  for (auto [mine, theirs] : {std::pair{&inter, &o.inter},
                              std::pair{&intra, &o.intra}}) {
    mine->shm_bytes += theirs->shm_bytes;
    mine->net_bytes += theirs->net_bytes;
    mine->transfers += theirs->transfers;
  }
  coalesced_ops += o.coalesced_ops;
  lookup_hit += o.lookup_hit;
  lookup_miss += o.lookup_miss;
  heartbeats += o.heartbeats;
  heartbeats_dropped += o.heartbeats_dropped;
  retries += o.retries;
  exhausted += o.exhausted;
  waves += o.waves;
  attempts += o.attempts;
  reexecuted_tasks += o.reexecuted_tasks;
  recovered_bytes += o.recovered_bytes;
  detection_rounds += o.detection_rounds;
  detection_latency_s = std::max(detection_latency_s, o.detection_latency_s);
  stored_bytes += o.stored_bytes;
  return *this;
}

std::string ServerCounters::fingerprint() const {
  std::ostringstream os;
  os << "sim " << sim.fibers << ' ' << sim.switches << ' ' << sim.notifies
     << ' ' << sim.timeouts << ' ' << sim.mutex_waits << ' '
     << sim.cancellations << ' ' << sim.peak_blocked << ' ' << sim.stacks
     << ' ' << exact(sim.final_vtime) << ' ' << sim.arena_bytes << ' '
     << sim.ready_rebuilds << " inter " << inter.shm_bytes << ' '
     << inter.net_bytes << ' ' << inter.transfers << " intra "
     << intra.shm_bytes << ' ' << intra.net_bytes << ' ' << intra.transfers
     << " counts " << coalesced_ops << ' ' << lookup_hit << ' ' << lookup_miss
     << ' ' << heartbeats << ' ' << heartbeats_dropped << ' ' << retries << ' '
     << exhausted << " waves " << waves << ' ' << attempts << ' '
     << reexecuted_tasks << ' ' << recovered_bytes << ' ' << detection_rounds
     << ' ' << exact(detection_latency_s) << " stored " << stored_bytes;
  return os.str();
}

void ServerCounters::report(RunReport& r, double op_s) const {
  MetricTable& t = r.per_layer;
  t.set("sim.switches", static_cast<double>(sim.switches), "count");
  t.set("sim.ns_per_switch",
        sim.switches > 0 ? 1e9 * op_s / static_cast<double>(sim.switches) : 0.0,
        "ns");
  t.set("sim.notifies", static_cast<double>(sim.notifies), "count");
  t.set("sim.timeouts", static_cast<double>(sim.timeouts), "count");
  t.set("sim.mutex_waits", static_cast<double>(sim.mutex_waits), "count");
  t.set("sim.peak_blocked", sim.peak_blocked, "count");
  t.set("sim.ready_rebuilds", static_cast<double>(sim.ready_rebuilds), "count");
  t.set("sim.arena_mb", static_cast<double>(sim.arena_bytes) / (1 << 20),
        "MiB");
  t.set("comm.intra_transfers", static_cast<double>(intra.transfers), "count");
  t.set("comm.intra_shm_bytes", static_cast<double>(intra.shm_bytes), "B");
  t.set("dart.inter_transfers", static_cast<double>(inter.transfers), "count");
  t.set("dart.shm_bytes", static_cast<double>(inter.shm_bytes), "B");
  t.set("dart.coalesced_ops", static_cast<double>(coalesced_ops), "count");
  t.set("dht.lookup_hit", static_cast<double>(lookup_hit), "count");
  t.set("dht.lookup_miss", static_cast<double>(lookup_miss), "count");
  const u64 lookups = lookup_hit + lookup_miss;
  t.set("dht.hit_ratio",
        lookups > 0 ? static_cast<double>(lookup_hit) /
                          static_cast<double>(lookups)
                    : 0.0,
        "ratio");
  t.set("engine.waves", static_cast<double>(waves), "count");
  t.set("engine.attempts", static_cast<double>(attempts), "count");
  t.set("engine.reexecuted_tasks", static_cast<double>(reexecuted_tasks),
        "count");
  t.set("engine.recovered_bytes", static_cast<double>(recovered_bytes), "B");
  t.set("health.heartbeats", static_cast<double>(heartbeats), "count");
  t.set("health.heartbeats_dropped", static_cast<double>(heartbeats_dropped),
        "count");
  t.set("health.detection_rounds", static_cast<double>(detection_rounds),
        "count");
  t.set("health.detection_latency_s", detection_latency_s, "s");
  t.set("fault.retries", static_cast<double>(retries), "count");
  t.set("fault.exhausted", static_cast<double>(exhausted), "count");
}

}  // namespace perfbench
