#include "probes.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>

#include "core/dht.hpp"
#include "dart/dart.hpp"
#include "geometry/redistribution.hpp"
#include "partition/partitioner.hpp"
#include "runtime/runtime.hpp"
#include "sfc/curve.hpp"

namespace perfbench {

using namespace cods;

namespace {

/// Repeats `fn` until `budget_s` host seconds have passed and at least
/// `min_reps` samples exist; returns the per-call host seconds.
template <typename Fn>
std::vector<double> repeat(double budget_s, size_t min_reps, Fn&& fn) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < min_reps || seconds_since(start) < budget_s) {
    samples.push_back(time_s(fn));
  }
  return samples;
}

}  // namespace

void probe_executor(RunReport& report, const Cluster& cluster,
                    const std::vector<CoreLoc>& placement, i32 pool_size) {
  Metrics metrics;
  Runtime runtime(cluster, metrics);
  runtime.set_exec_mode(ExecMode::kPooled);
  runtime.set_exec_pool_size(pool_size);
  std::vector<double> escalations, peak_live, steals;
  bool clean = true;
  const std::vector<double> samples = repeat(0.3, 5, [&] {
    const auto failures = runtime.run_collect(
        placement, [](RankCtx& ctx) { ctx.world.barrier(); });
    clean = clean && failures.empty();
    const ExecutorStats& stats = runtime.last_exec_stats();
    escalations.push_back(stats.escalations);
    peak_live.push_back(stats.peak_live);
    steals.push_back(stats.steals);
  });
  report.check(clean, "executor probe: a rank failed");
  report.per_layer.set("executor.dispatch_us", 1e6 * median(samples), "us");
  report.per_layer.set("executor.escalations", median(escalations), "count");
  report.per_layer.set("executor.peak_live", median(peak_live), "count");
  report.per_layer.set("executor.steals", median(steals), "count");
}

void probe_dart(RunReport& report) {
  Cluster cluster(ClusterSpec{.num_nodes = 2, .cores_per_node = 12});
  Metrics metrics;
  HybridDart dart(cluster, metrics);
  struct Case {
    const char* name;
    u64 bytes;
    i32 fan_in;
    bool net;
  };
  const Case cases[] = {
      {"dart.pull_us.shm_small", 32, 4, false},
      {"dart.pull_us.net_small", 32, 4, true},
      {"dart.pull_us.shm_large", 256 * 1024, 8, false},
      {"dart.pull_us.net_large", 256 * 1024, 8, true},
  };
  double shm_large_s = 0.0;
  u64 key = 1;
  for (const Case& c : cases) {
    const Endpoint local{0, CoreLoc{0, 0}};
    std::vector<std::vector<std::byte>> windows(
        static_cast<size_t>(c.fan_in), std::vector<std::byte>(c.bytes));
    std::vector<std::byte> out(c.bytes * static_cast<u64>(c.fan_in));
    std::vector<PullOp> ops;
    for (i32 i = 0; i < c.fan_in; ++i) {
      auto& window = windows[static_cast<size_t>(i)];
      std::fill(window.begin(), window.end(), static_cast<std::byte>(i + 1));
      const Endpoint remote{100 + i, CoreLoc{c.net ? 1 : 0, 1 + i}};
      dart.expose(remote.client_id, key, window);
      std::byte* dst = out.data() + static_cast<u64>(i) * c.bytes;
      const u64 bytes = c.bytes;
      ops.push_back(PullOp{local, remote, key, c.bytes, 2,
                           TrafficClass::kInterApp,
                           [dst, bytes](std::span<const std::byte> src) {
                             std::memcpy(dst, src.data(), bytes);
                           }});
    }
    const std::vector<double> samples =
        repeat(0.15, 20, [&] { dart.pull(ops); });
    bool copied = true;
    for (i32 i = 0; i < c.fan_in; ++i) {
      copied = copied && out[static_cast<u64>(i) * c.bytes] ==
                             static_cast<std::byte>(i + 1);
    }
    report.check(copied, std::string(c.name) + " probe copied wrong bytes");
    for (i32 i = 0; i < c.fan_in; ++i) dart.withdraw(100 + i, key);
    ++key;
    const double med = median(samples);
    report.per_layer.set(c.name, 1e6 * med, "us");
    if (!c.net && c.bytes > 1024) shm_large_s = med;
  }
  const double large_bytes = 8.0 * 256.0 * 1024.0;
  report.per_layer.set(
      "dart.copy_gbps",
      shm_large_s > 0.0 ? large_bytes / shm_large_s / 1e9 : 0.0, "GB/s");
}

void probe_metrics_record(RunReport& report) {
  constexpr int kWriters = 4;
  constexpr int kCalls = 200000;
  Metrics metrics;
  std::vector<double> per_call_ns;
  for (int rep = 0; rep < 5; ++rep) {
    const double s = time_s([&] {
      std::vector<std::thread> writers;
      for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&metrics, t] {
          for (int i = 0; i < kCalls; ++i) {
            metrics.record(1 + (t & 1), TrafficClass::kInterApp, 4096,
                           (i & 1) != 0);
          }
        });
      }
      for (std::thread& w : writers) w.join();
    });
    per_call_ns.push_back(1e9 * s / kCalls);
  }
  const u64 expected = 5ull * kWriters * kCalls;
  const u64 recorded = metrics.counters(1, TrafficClass::kInterApp).transfers +
                       metrics.counters(2, TrafficClass::kInterApp).transfers;
  report.check(recorded == expected, "metrics probe lost records");
  report.per_layer.set("metrics.record_ns", median(per_call_ns), "ns");
}

void probe_cost_model(RunReport& report, const Cluster& cluster,
                      const std::vector<Flow>& primary,
                      const std::vector<Flow>& background) {
  CostModel model(cluster);
  double modeled = 0.0;
  const std::vector<double> samples = repeat(0.2, 3, [&] {
    modeled = model.batch_time_with_background(primary, background);
  });
  report.check(modeled > 0.0, "cost-model probe modelled no time");
  report.per_layer.set("cost_model.batch_us", 1e6 * median(samples), "us");
}

void probe_dht_sfc(RunReport& report, const Cluster& cluster,
                   const AppSpec& producer, const Placement& producer_placement,
                   const AppSpec& consumer) {
  const Box domain = producer.dec.domain_box();
  i64 max_extent = 1;
  for (int d = 0; d < domain.ndim(); ++d) {
    max_extent = std::max(max_extent, domain.extent(d));
  }
  const SfcCurve curve(CurveKind::kHilbert, domain.ndim(),
                       SfcCurve::bits_for_extent(max_extent));

  // sfc.encode_ns over the domain's cells (row-major, at most 2^18).
  const u64 cells = std::min<u64>(domain.volume(), u64{1} << 18);
  u64 sink = 0;
  const std::vector<double> encode = repeat(0.1, 3, [&] {
    Point p = Point::zeros(domain.ndim());
    for (u64 i = 0; i < cells; ++i) {
      sink += curve.encode(p);
      for (int d = domain.ndim() - 1; d >= 0; --d) {
        if (++p[d] < domain.extent(d)) break;
        p[d] = 0;
      }
    }
  });
  report.per_layer.set("sfc.encode_ns",
                       1e9 * median(encode) / static_cast<double>(cells), "ns");

  std::vector<Box> producer_boxes;
  std::vector<i32> owner;
  for (i32 r = 0; r < producer.ntasks(); ++r) {
    for (const Box& b : producer.dec.owned_boxes(r)) {
      producer_boxes.push_back(b);
      owner.push_back(r);
    }
  }
  u64 spans = 0;
  const std::vector<double> box_spans_s = repeat(0.1, 3, [&] {
    for (const Box& b : producer_boxes) spans += box_spans(curve, b).size();
  });
  report.per_layer.set(
      "sfc.box_spans_us",
      1e6 * median(box_spans_s) / static_cast<double>(producer_boxes.size()),
      "us");

  CodsDht dht(cluster, curve);
  for (size_t i = 0; i < producer_boxes.size(); ++i) {
    const CoreLoc loc =
        producer_placement.loc(TaskId{producer.app_id, owner[i]});
    dht.insert("field", 0,
               DataLocation{producer_boxes[i], cluster.total_cores() + loc.node,
                            CoreLoc{loc.node, 0}, static_cast<u64>(i + 1)});
  }
  std::vector<Box> queries;
  for (i32 r = 0; r < consumer.ntasks(); ++r) {
    for (const Box& b : consumer.dec.owned_boxes(r)) queries.push_back(b);
  }
  u64 found = 0;
  const std::vector<double> query_s = repeat(0.1, 3, [&] {
    found = 0;
    for (const Box& q : queries) {
      found += dht.query("field", 0, q).locations.size();
    }
  });
  report.check(found >= queries.size(), "dht probe: a query found nothing");
  report.per_layer.set(
      "dht.query_us",
      1e6 * median(query_s) / static_cast<double>(queries.size()), "us");
  if (sink == 0 && spans == 0) report.note("sfc probe produced no output");
}

void probe_geometry(RunReport& report, const std::vector<Coupling>& couplings) {
  u64 volumes = 0;
  i32 max_fan_in = 0;
  const double s = time_s([&] {
    for (const Coupling& c : couplings) {
      const auto transfers =
          redistribution_volumes(c.producer->dec, c.consumer->dec);
      volumes += transfers.size();
      std::map<i32, i32> fan_in;
      for (const TransferVolume& t : transfers) ++fan_in[t.dst_rank];
      for (const auto& [rank, n] : fan_in) max_fan_in = std::max(max_fan_in, n);
    }
  });
  report.per_layer.set("geometry.redistribution_ms", 1e3 * s, "ms");
  report.per_layer.set("geometry.transfer_volumes",
                       static_cast<double>(volumes), "count");
  report.per_layer.set("geometry.max_fan_in", max_fan_in, "count");
}

void probe_server_mapping(RunReport& report, const std::vector<Bundle>& bundles,
                          u64 seed) {
  double kway_s = 0.0;
  double mapping_s = 0.0;
  i64 cut = 0;
  for (const Bundle& bundle : bundles) {
    const Cluster cluster(bundle.cluster);
    const Graph graph = bundle_comm_graph(bundle.apps);
    const i32 cores = cluster.cores_per_node();
    PartitionOptions options;
    options.max_part_weight = cores;
    options.seed = seed;
    PartitionResult part;
    kway_s += time_s([&] {
      part = kway_partition(graph, (graph.nvtx + cores - 1) / cores, options);
    });
    cut += part.edge_cut;
    ServerMappingResult mapped;
    mapping_s += time_s([&] {
      mapped = server_data_centric_placement(cluster, bundle.apps, seed);
    });
    report.check(mapped.placement.valid(cluster),
                 "server mapping probe produced an invalid placement");
    report.check(mapped.edge_cut_bytes == part.edge_cut,
                 "server mapping and k-way probe disagree on the edge cut");
  }
  report.per_layer.set("partition.kway_ms", 1e3 * kway_s, "ms");
  report.per_layer.set("partition.edge_cut_bytes", static_cast<double>(cut),
                       "B");
  report.per_layer.set("mapping.server_ms", 1e3 * mapping_s, "ms");
}

void probe_client_mapping(RunReport& report,
                          const std::vector<SeqCoupling>& couplings) {
  double s = 0.0;
  for (const SeqCoupling& c : couplings) {
    const Cluster cluster(c.cluster);
    const Placement producer_place =
        round_robin_placement(cluster, {c.producer});
    std::vector<i32> nodes(static_cast<size_t>(cluster.num_nodes()));
    for (i32 n = 0; n < cluster.num_nodes(); ++n) {
      nodes[static_cast<size_t>(n)] = n;
    }
    Placement placed;
    s += time_s([&] {
      std::vector<std::vector<NodeBytes>> per_app;
      for (const AppSpec& consumer : c.consumers) {
        per_app.push_back(
            consumer_node_bytes(c.producer, producer_place, consumer));
      }
      placed =
          client_data_centric_placement(cluster, c.consumers, per_app, nodes);
    });
    report.check(placed.valid(cluster),
                 "client mapping probe produced an invalid placement");
  }
  report.per_layer.set("mapping.client_ms", 1e3 * s, "ms");
}

std::vector<Flow> consumer_flows(const AppSpec& producer,
                                 const Placement& producer_place,
                                 const AppSpec& consumer,
                                 const Placement& consumer_place,
                                 bool stored_at_node_service) {
  std::vector<Flow> flows;
  for (const TransferVolume& t :
       redistribution_volumes(producer.dec, consumer.dec)) {
    CoreLoc src = producer_place.loc(TaskId{producer.app_id, t.src_rank});
    if (stored_at_node_service) src.core = 0;
    const CoreLoc dst =
        consumer_place.loc(TaskId{consumer.app_id, t.dst_rank});
    flows.push_back(Flow{src, dst, t.cells * consumer.elem_size});
  }
  return flows;
}

}  // namespace perfbench
