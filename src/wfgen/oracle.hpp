// Invariant oracles over an enacted scenario (wfgen/enact.hpp): checks
// every generated workflow must pass regardless of topology, fault
// overlay or execution mode. The fuzz harness runs these on each
// scenario; the differential comparator (diff_runs) covers cross-mode
// equality, the oracles cover absolute correctness:
//
//   outputs         — zero pattern-verification mismatches
//   byte conservation — ledger spans == transfer journal (exact multiset)
//                     and journal aggregates == metrics per class
//                     (control included) == analysis payload totals
//   stored bytes    — space holds exactly the put_seq bytes the spec
//                     implies, also across recoveries
//   schedule        — every task mapped once, no core double-booked,
//                     node capacity respected, no task left on a node
//                     that was declared dead by its wave
//   virtual clock   — spans well-formed and monotone per track, children
//                     nested within their parents
//   fault accounting— clean runs report clean; faulty runs only ever
//                     declare scheduled crash victims dead
#pragma once

#include <string>
#include <vector>

#include "wfgen/enact.hpp"
#include "wfgen/wfgen.hpp"

namespace cods {
namespace wfgen {

struct OracleReport {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  std::string to_string() const;  ///< one violation per line, "" when ok
};

/// Runs every oracle; never throws on a violation (collects them all).
OracleReport check_oracles(const ScenarioSpec& spec, const EnactResult& run);

}  // namespace wfgen
}  // namespace cods
