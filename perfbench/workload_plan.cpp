// paper-plan: the paper-scale mapping planner. One op is one
// advise_mapping() call (both mappings evaluated by the modelled
// scenario code paths, nothing enacted) over the plans behind the
// paper's figures: the Fig. 8 concurrent and Fig. 9 sequential pattern
// grids (CAP1=512 -> CAP2=64 and SAP1=512 -> SAP2=128 + SAP3=384 over
// 1024^3 doubles) and the Fig. 16 weak-scaling ladder. Geometry
// redistribution, the k-way partitioner, mapping and the cost model carry
// all the work.
//
// The seed is the partitioner seed of every plan. The figure tables are
// checked at the paper's own seed.
#include <cstdio>

#include "probes.hpp"
#include "workflow/advisor.hpp"

namespace perfbench {

using namespace cods;

namespace {

constexpr i32 kCoresPerNode = 12;

AppSpec paper_app(i32 id, const char* name, std::vector<i64> extents,
                  std::vector<i32> procs, Dist dist = Dist::kBlocked) {
  AppSpec spec;
  spec.app_id = id;
  spec.name = name;
  spec.dec = Decomposition(std::move(extents), std::move(procs), dist, 64);
  spec.elem_size = 8;
  return spec;
}

ClusterSpec cluster_for_cores(i32 cores) {
  return ClusterSpec{.num_nodes = (cores + kCoresPerNode - 1) / kCoresPerNode,
                     .cores_per_node = kCoresPerNode};
}

ScenarioConfig concurrent(std::vector<i64> extents, std::vector<i32> p,
                          std::vector<i32> c, Dist pd, Dist cd, u64 seed) {
  ScenarioConfig config;
  config.apps = {paper_app(1, "CAP1", extents, std::move(p), pd),
                 paper_app(2, "CAP2", extents, std::move(c), cd)};
  config.cluster = cluster_for_cores(static_cast<i32>(task_count(config.apps)));
  config.couplings = {{1, 2}};
  config.sequential = false;
  config.seed = seed;
  return config;
}

ScenarioConfig sequential(std::vector<i64> extents, std::vector<i32> p,
                          std::vector<i32> s2, std::vector<i32> s3, Dist pd,
                          Dist cd, u64 seed) {
  ScenarioConfig config;
  config.apps = {paper_app(1, "SAP1", extents, std::move(p), pd),
                 paper_app(2, "SAP2", extents, std::move(s2), cd),
                 paper_app(3, "SAP3", extents, std::move(s3), cd)};
  config.cluster = cluster_for_cores(config.apps[0].ntasks());
  config.couplings = {{1, 2}, {1, 3}};
  config.sequential = true;
  config.seed = seed;
  return config;
}

struct Plan {
  std::string name;
  ScenarioConfig config;
};

std::vector<Plan> make_plans(u64 seed) {
  const std::vector<i64> base = {1024, 1024, 1024};
  const std::vector<std::pair<Dist, Dist>> patterns = {
      {Dist::kBlocked, Dist::kBlocked},
      {Dist::kCyclic, Dist::kCyclic},
      {Dist::kBlockCyclic, Dist::kBlockCyclic},
      {Dist::kBlocked, Dist::kCyclic},
      {Dist::kBlocked, Dist::kBlockCyclic},
      {Dist::kCyclic, Dist::kBlockCyclic},
  };
  std::vector<Plan> plans;
  for (const auto& [pd, cd] : patterns) {
    plans.push_back({"fig08 " + to_string(pd) + "/" + to_string(cd),
                     concurrent(base, {8, 8, 8}, {4, 4, 4}, pd, cd, seed)});
  }
  for (const auto& [pd, cd] : patterns) {
    plans.push_back(
        {"fig09 " + to_string(pd) + "/" + to_string(cd),
         sequential(base, {8, 8, 8}, {8, 8, 2}, {8, 8, 6}, pd, cd, seed)});
  }
  struct Rung {
    i32 factor;
    std::vector<i64> extents;
    std::vector<i32> producer, cap2, sap2, sap3;
  };
  const std::vector<Rung> ladder = {
      {1, {1024, 1024, 1024}, {8, 8, 8}, {4, 4, 4}, {8, 8, 2}, {8, 8, 6}},
      {2, {2048, 1024, 1024}, {16, 8, 8}, {8, 4, 4}, {16, 8, 2}, {16, 8, 6}},
      {4, {2048, 2048, 1024}, {16, 16, 8}, {8, 8, 4}, {16, 16, 2}, {16, 16, 6}},
      {8, {2048, 2048, 2048}, {16, 16, 16}, {8, 8, 8}, {16, 16, 4},
       {16, 16, 12}},
      {16, {4096, 2048, 2048}, {32, 16, 16}, {16, 8, 8}, {32, 16, 4},
       {32, 16, 12}},
  };
  for (const Rung& r : ladder) {
    const std::string x = "fig16 x" + std::to_string(r.factor);
    plans.push_back({x + " concurrent",
                     concurrent(r.extents, r.producer, r.cap2, Dist::kBlocked,
                                Dist::kBlocked, seed)});
    plans.push_back({x + " sequential",
                     sequential(r.extents, r.producer, r.sap2, r.sap3,
                                Dist::kBlocked, Dist::kBlocked, seed)});
  }
  return plans;
}

std::string advice_fingerprint(const MappingAdvice& a) {
  return to_string(a.recommended) + " " + std::to_string(a.rr_network_bytes) +
         " " + std::to_string(a.dc_network_bytes) + " " +
         exact(a.network_savings) + " " + exact(a.rr_retrieve_time) + " " +
         exact(a.dc_retrieve_time) + " " + std::to_string(a.max_fan_in) + " " +
         exact(a.inter_intra_ratio);
}

/// The figure rows the planner must reproduce at the paper's seed.
void check_figures(RunReport& report) {
  const ScenarioConfig fig8 = concurrent({1024, 1024, 1024}, {8, 8, 8},
                                         {4, 4, 4}, Dist::kBlocked,
                                         Dist::kBlocked, /*seed=*/1);
  ScenarioConfig rr = fig8;
  rr.strategy = MappingStrategy::kRoundRobin;
  ScenarioConfig dc = fig8;
  dc.strategy = MappingStrategy::kDataCentric;
  const ScenarioResult rr_result = run_modeled_scenario(rr);
  const ScenarioResult dc_result = run_modeled_scenario(dc);
  auto gib = [](u64 bytes) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  static_cast<double>(bytes) / static_cast<double>(kGiB));
    return std::string(buf);
  };
  const std::string rr_net = gib(rr_result.apps.at(2).inter_net_bytes);
  const std::string dc_net = gib(dc_result.apps.at(2).inter_net_bytes);
  const std::string cap2 = format_seconds(dc_result.apps.at(2).retrieve_time);
  report.note("fig08 blocked/blocked: " + rr_net + " -> " + dc_net +
              "; fig11 CAP2 data-centric " + cap2);
  report.check(rr_net == "8.00 GiB" && dc_net == "1.50 GiB",
               "paper-plan: Fig. 8 blocked/blocked is " + rr_net + " -> " +
                   dc_net + ", expected 8.00 GiB -> 1.50 GiB");
  report.check(cap2 == "50.35 ms",
               "paper-plan: Fig. 11 CAP2 data-centric is " + cap2 +
                   ", expected 50.35 ms");
}

}  // namespace

void run_paper_plan(const RunConfig& config, SpanLog& spans,
                    RunReport& report) {
  std::vector<Plan> plans;
  LoopSamples loop;
  auto setup = [&] {
    BenchSpan span(spans, "setup");
    loop.setup_s.push_back(time_s([&] { plans = make_plans(config.seed); }));
  };
  setup();

  // Warm-up pass, untimed: the advice every later pass must repeat.
  std::vector<std::string> expected;
  {
    BenchSpan span(spans, "warmup");
    for (const Plan& plan : plans) {
      expected.push_back(advice_fingerprint(advise_mapping(plan.config)));
    }
  }

  // Whole passes over the plan set, so every run samples the same mix
  // of plan sizes.
  auto timed_loop = [&](LoopSamples& samples, double seconds, bool first) {
    const auto start = Clock::now();
    do {
      if (!first) setup();
      first = false;
      for (size_t i = 0; i < plans.size(); ++i) {
        BenchSpan span(spans, "plan");
        MappingAdvice advice;
        samples.op_s.push_back(
            time_s([&] { advice = advise_mapping(plans[i].config); }));
        samples.op_id.push_back(i);
        samples.tasks += task_count(plans[i].config.apps);
        ++samples.attempted;
        const bool same = advice_fingerprint(advice) == expected[i];
        report.check(same, "paper-plan: advice for " + plans[i].name +
                               " differs between passes");
        if (!same) ++samples.failed;
      }
    } while (seconds_since(start) < seconds);
  };

  if (!config.trace) {
    timed_loop(loop, config.seconds, true);
    loop.peak_rss_mb = peak_rss_mb();

    BenchSpan span(spans, "verify");
    check_figures(report);
    // Modelled outcome of each plan under data-centric mapping. (The
    // advisor's recommendation flips on some plans between partitioner
    // seeds, which would make these means jump.)
    Modeled modeled;
    for (size_t i = 0; i < plans.size(); ++i) {
      ScenarioConfig chosen = plans[i].config;
      chosen.strategy = MappingStrategy::kDataCentric;
      const ScenarioResult r = run_modeled_scenario(chosen);
      modeled.net_bytes += static_cast<double>(r.total_inter_net());
      modeled.intra_net_bytes += static_cast<double>(r.total_intra_net());
      double slowest = 0.0, sum = 0.0;
      for (const CouplingEdge& e : chosen.couplings) {
        const double t = r.apps.at(e.consumer).retrieve_time;
        slowest = std::max(slowest, t);
        sum += t;
      }
      modeled.makespan_s += slowest;
      modeled.retrieve_s += sum / static_cast<double>(chosen.couplings.size());
    }
    const double n = static_cast<double>(plans.size());
    modeled.net_bytes /= n;
    modeled.intra_net_bytes /= n;
    modeled.makespan_s /= n;
    modeled.retrieve_s /= n;
    report_end_to_end(report, loop, modeled);
    return;
  }

  // Nothing is enacted, so there is no engine trace to switch on: the
  // traced run is the same loop with the benchmark-side spans.
  timed_loop(loop, config.seconds, true);
  report.attempted = loop.attempted;
  report.failed = loop.failed;

  BenchSpan probes(spans, "probes");
  std::vector<Coupling> couplings;
  std::vector<Bundle> bundles;
  std::vector<SeqCoupling> sequential_plans;
  for (const Plan& plan : plans) {
    const ScenarioConfig& c = plan.config;
    for (const CouplingEdge& e : c.couplings) {
      couplings.push_back({&c.apps[static_cast<size_t>(e.producer - 1)],
                           &c.apps[static_cast<size_t>(e.consumer - 1)]});
    }
    if (c.sequential) {
      sequential_plans.push_back(
          {c.cluster, c.apps[0], {c.apps[1], c.apps[2]}});
    } else {
      bundles.push_back({c.cluster, c.apps});
    }
  }
  {
    BenchSpan span(spans, "probe.geometry");
    probe_geometry(report, couplings);
  }
  {
    BenchSpan span(spans, "probe.server_mapping");
    probe_server_mapping(report, bundles, config.seed);
  }
  {
    BenchSpan span(spans, "probe.client_mapping");
    probe_client_mapping(report, sequential_plans);
  }
  // Fig. 9 blocked/blocked under data-centric mapping: SAP2's pulls with
  // SAP3's pulls as background traffic.
  BenchSpan span(spans, "probe.cost_model");
  ScenarioConfig fig9 = plans[6].config;
  fig9.strategy = MappingStrategy::kDataCentric;
  const ScenarioResult r = run_modeled_scenario(fig9);
  const Placement& producer = r.placements.at(1);
  const Cluster cluster(fig9.cluster);
  probe_cost_model(
      report, cluster,
      consumer_flows(fig9.apps[0], producer, fig9.apps[1], r.placements.at(2),
                     /*stored_at_node_service=*/true),
      consumer_flows(fig9.apps[0], producer, fig9.apps[2], r.placements.at(3),
                     /*stored_at_node_service=*/true));
}

}  // namespace perfbench
