// Oracle fuzzing: a wide kSimulate-only sweep (simulate enacts scenarios
// in milliseconds, so this suite carries the bulk of the ≥200-scenario
// budget) plus negative tests proving the comparator and the oracles
// actually fire — a fuzz harness whose failure paths are never executed
// is indistinguishable from one that asserts nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "fuzz/fuzz_common.hpp"

namespace cods {
namespace {

using testing::enact_checked;
using testing::expect_oracles;

constexpr u64 kDefaultBase = 91000;
constexpr i32 kDefaultCount = 120;

// Failover regressions, generated with GenParams::p_fault = 1.0: each
// loses a node in a wave of several bundles. While failover re-mapped
// only the affected bundles, the re-mapped tasks landed on cores the
// untouched bundles kept, and the schedule oracle reported "merged
// placement is invalid". The sweep enacts them after its seed range,
// whatever the environment selects.
constexpr u64 kFailoverSeeds[] = {273,  355,  683,  1076, 1441,
                                  1945, 2457, 2510, 2613, 2667,
                                  2770, 3303, 3323, 3787, 3925};

TEST(FuzzOracles, GeneratedScenariosSatisfyAllInvariants) {
  const u64 base = testing::fuzz_base_seed(kDefaultBase);
  const i32 count = testing::fuzz_count(kDefaultCount);
  std::set<wfgen::Topology> seen;
  i32 faulty = 0;
  for (i32 i = 0; i < count; ++i) {
    const u64 seed = base + static_cast<u64>(i);
    CODS_SEED_TRACE("CODS_FUZZ_SEED", seed);
    const wfgen::ScenarioSpec spec = wfgen::generate(seed);
    seen.insert(spec.topology);
    faulty += spec.faulty ? 1 : 0;
    wfgen::EnactResult run;
    if (!enact_checked(spec, {.mode = ExecMode::kSimulate}, run)) continue;
    expect_oracles(spec, run, "kSimulate");
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The default sweep must exercise the whole sampler, not one corner.
  if (count >= kDefaultCount) {
    EXPECT_EQ(seen.size(), 4u) << "sweep missed a topology";
    EXPECT_GT(faulty, 0) << "sweep never sampled a fault overlay";
    EXPECT_LT(faulty, count) << "sweep never sampled a clean scenario";
  }
  wfgen::GenParams all_faulty;
  all_faulty.p_fault = 1.0;
  for (const u64 seed : kFailoverSeeds) {
    CODS_SEED_NOTE(seed);
    const wfgen::ScenarioSpec spec = wfgen::generate(seed, all_faulty);
    wfgen::EnactResult run;
    if (!enact_checked(spec, {.mode = ExecMode::kSimulate}, run)) continue;
    expect_oracles(spec, run, "kSimulate, p_fault=1.0");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- negative controls: planted defects must be caught -----------------

TEST(FuzzOracles, DiffRunsFlagsPlantedDivergence) {
  // A clean scenario: the planted defects below must be the only thing
  // the comparator/oracles can possibly object to.
  wfgen::GenParams params;
  params.allow_faults = false;
  const wfgen::ScenarioSpec spec = wfgen::generate(7, params);
  wfgen::EnactResult run;
  ASSERT_TRUE(enact_checked(spec, {.mode = ExecMode::kSimulate}, run));
  ASSERT_EQ(wfgen::diff_runs(run, run), "");

  wfgen::EnactResult tampered = run;
  tampered.stored_bytes += 1;
  EXPECT_NE(wfgen::diff_runs(run, tampered), "");

  tampered = run;
  tampered.mismatches = 3;
  EXPECT_NE(wfgen::diff_runs(run, tampered), "");

  tampered = run;
  tampered.chrome_json += " ";
  EXPECT_NE(wfgen::diff_runs(run, tampered), "");

  tampered = run;
  ASSERT_FALSE(tampered.reports.empty());
  tampered.reports[0].attempts += 1;
  EXPECT_NE(wfgen::diff_runs(run, tampered), "");

  tampered = run;
  ASSERT_FALSE(tampered.journal.empty());
  tampered.journal[0].bytes += 8;
  EXPECT_NE(wfgen::diff_runs(run, tampered), "");

  tampered = run;
  ASSERT_FALSE(tampered.inter.empty());
  tampered.inter.begin()->second.transfers += 1;
  EXPECT_NE(wfgen::diff_runs(run, tampered), "");
}

TEST(FuzzOracles, OraclesFlagPlantedViolations) {
  wfgen::GenParams params;
  params.allow_faults = false;
  const wfgen::ScenarioSpec spec = wfgen::generate(7, params);
  wfgen::EnactResult run;
  ASSERT_TRUE(enact_checked(spec, {.mode = ExecMode::kSimulate}, run));
  ASSERT_TRUE(wfgen::check_oracles(spec, run).ok());

  // Data corruption.
  wfgen::EnactResult tampered = run;
  tampered.mismatches = 1;
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Stored bytes drifting from what the spec implies.
  tampered = run;
  tampered.stored_bytes += 8;
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Byte conservation: a journal record the ledger never saw.
  tampered = run;
  ASSERT_FALSE(tampered.journal.empty());
  tampered.journal.push_back(tampered.journal.front());
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Byte conservation: a metered zero-byte control record that was never
  // journaled (the bytes still agree; only the record count differs).
  tampered = run;
  tampered.total_control.transfers += 1;
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Journal overflow forfeits exact reconciliation.
  tampered = run;
  tampered.journal_dropped = 1;
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Clock: a span running backwards in time.
  tampered = run;
  ASSERT_FALSE(tampered.spans.empty());
  tampered.spans.back().duration = -1.0;
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Faults: a clean run claiming recovery activity.
  tampered = run;
  ASSERT_FALSE(tampered.reports.empty());
  tampered.reports[0].attempts = 2;
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Faults: a node death nobody scheduled.
  tampered = run;
  tampered.dead_nodes.push_back(0);
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());

  // Schedule: a rogue task mapped to a node that doesn't exist.
  tampered = run;
  ASSERT_FALSE(tampered.placements.empty());
  auto& placement = tampered.placements.begin()->second;
  const i32 app_id = tampered.placements.begin()->first;
  placement.assign(TaskId{app_id, /*rank=*/1 << 20},
                   CoreLoc{spec.cluster.num_nodes + 7, 0});
  EXPECT_FALSE(wfgen::check_oracles(spec, tampered).ok());
}

TEST(FuzzOracles, OracleReportFormatsOneViolationPerLine) {
  wfgen::OracleReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.to_string(), "");
  report.violations = {"first", "second"};
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.to_string(), "first\nsecond");
}

}  // namespace
}  // namespace cods
