// Path-enumeration fault-tree oracle for the ZBDD engine.
//
// The first FTA of this reproduction: enumerate every input→output path of
// the component graph (oracle::enumerate_paths), then screen k-subsets of
// the path members in increasing order for minimal cut sets, and quantify
// with the rare-event sum over those cuts. Exponential twice over, so the
// shipped engine is fta::synthesize_fault_tree_zbdd + fta::quantify; the
// property tests and bench_ext_fta hold it identical to this oracle (cut
// sets, labels, rates, truncation flag and rendered text). Test and bench
// targets only — never shipped.
#pragma once

#include <cstddef>

#include "decisive/core/fta.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::oracle {

struct FtaOptions {
  /// Cut sets larger than this are not enumerated (cost guard). When the
  /// bound clips the family the returned tree carries `truncated = true`.
  size_t max_cut_set_size = 3;
  /// Path-enumeration guard; exceeding it throws.
  size_t max_paths = 100000;
};

/// Synthesises the fault tree for the loss of `component`'s function by
/// path enumeration. Basic-event rates come from core::loss_failure_rate()
/// (components without loss modes get rate zero but still appear
/// structurally). When the size bound may have clipped the family, an exact
/// transversal probe decides `truncated` (conservatively true when its work
/// budget runs out). Throws AnalysisError when the component has no boundary
/// IONodes or the path count exceeds FtaOptions::max_paths.
core::FaultTree synthesize_fault_tree(const ssam::SsamModel& ssam, ssam::ObjectId component,
                                      const FtaOptions& options = {});

/// Probability of the top event over `mission_hours` by the rare-event
/// approximation over the tree's minimal cut sets: the sum over cut sets of
/// the product of member failure probabilities (1 - e^{-lambda t} each),
/// capped at 1. The oracle for fta::Quantification::rare_event_bound.
double top_event_probability(const core::FaultTree& tree, double mission_hours);

}  // namespace decisive::oracle
