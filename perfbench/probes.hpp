// Layer probes: each times calls into one layer's public functions, fed
// the inputs of the workload that exercises the layer (README.md maps
// every probe to its workload). Probes run only in traced runs and write
// per-layer rows into the run's report.
#pragma once

#include <vector>

#include "harness.hpp"
#include "platform/cost_model.hpp"
#include "workflow/mapping.hpp"

namespace perfbench {

/// One run_collect() dispatch of `placement` ranks on a kPooled pool of
/// `pool_size`, each rank joining one barrier: executor.dispatch_us and
/// the executor's escalation/steal/peak-thread counters.
void probe_executor(RunReport& report, const cods::Cluster& cluster,
                    const std::vector<cods::CoreLoc>& placement,
                    i32 pool_size);

/// HybridDart::pull of one consumer's fan-in batch, shared memory and
/// network: small = seq-scale's 4 sources x 32 B, large = insitu-live's
/// 8 sources x 256 KiB. Also dart.copy_gbps from the large shm batch.
void probe_dart(RunReport& report);

/// Metrics::record from 4 concurrent writer threads.
void probe_metrics_record(RunReport& report);

/// CostModel::batch_time_with_background over one consumer wave's flows.
void probe_cost_model(RunReport& report, const cods::Cluster& cluster,
                      const std::vector<cods::Flow>& primary,
                      const std::vector<cods::Flow>& background);

/// DHT registration of the producer's regions at their placement, then
/// dht.query_us over every consumer region; sfc.encode_ns over the
/// domain's cells and sfc.box_spans_us over the producer's regions.
void probe_dht_sfc(RunReport& report, const cods::Cluster& cluster,
                   const cods::AppSpec& producer,
                   const cods::Placement& producer_placement,
                   const cods::AppSpec& consumer);

/// A producer -> consumer decomposition pair.
struct Coupling {
  const cods::AppSpec* producer = nullptr;
  const cods::AppSpec* consumer = nullptr;
};

/// redistribution_volumes over every coupling (one pass, timed).
void probe_geometry(RunReport& report, const std::vector<Coupling>& couplings);

/// A concurrently coupled bundle on its cluster.
struct Bundle {
  cods::ClusterSpec cluster;
  std::vector<cods::AppSpec> apps;
};

/// kway_partition of each bundle's communication graph into node-sized
/// parts, and the full server_data_centric_placement.
void probe_server_mapping(RunReport& report, const std::vector<Bundle>& bundles,
                          u64 seed);

/// A sequential coupling: producer placed round-robin, consumers mapped by
/// the client data-centric strategy.
struct SeqCoupling {
  cods::ClusterSpec cluster;
  cods::AppSpec producer;
  std::vector<cods::AppSpec> consumers;
};

/// consumer_node_bytes + client_data_centric_placement per coupling.
void probe_client_mapping(RunReport& report,
                          const std::vector<SeqCoupling>& couplings);

/// Flows of one consumer wave: every producer -> consumer overlap, from
/// the producer task's core (or its node's storage service when the data
/// was stored sequentially) to the consumer task's core.
std::vector<cods::Flow> consumer_flows(const cods::AppSpec& producer,
                                       const cods::Placement& producer_place,
                                       const cods::AppSpec& consumer,
                                       const cods::Placement& consumer_place,
                                       bool stored_at_node_service);

}  // namespace perfbench
