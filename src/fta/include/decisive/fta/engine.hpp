// ZBDD minimal-cut-set synthesis over the component flow graph.
//
// The shipped fault-tree synthesis. Enumerating every input→output path and
// screening k-subsets of the members (the oracle below) is exponential twice
// over; this engine instead Shannon-decomposes the structure function directly on the flow graph: pick
// the first free component on a live path, and the minimal cut sets are
//   node(c, F[c perfect], F[c failed] \ supersets(F[c perfect]))
// with two terminal checks per state — "already disconnected" ({∅}) and
// "permanently connected through unfailable/perfect vertices" ({}). States
// are memoised on their (live vertices, perfect components, order budget)
// signature, so redundant lattices collapse to polynomially many distinct
// subproblems where enumeration explodes.
//
// The result is a `core::FaultTree` identical (cut sets, labels, rates) to
// the path-enumeration oracle's (`oracle::synthesize_fault_tree`, in the
// test-only support library under tests/support) on every input where the
// oracle completes — enforced by property tests and the bench_ext_fta
// identity gate.
#pragma once

#include "decisive/core/fta.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::fta {

struct ZbddFtaOptions {
  /// Minimal cut sets larger than this are suppressed (0 = unbounded). When
  /// the bound clips the synthesis the returned tree has `truncated` set:
  /// minimal cut sets above the bound MAY exist (the flag is conservative —
  /// suppression is detected before the sub-state is fully explored).
  size_t max_order = 0;
};

/// Synthesises the fault tree for the loss of `component`'s function via
/// ZBDD decomposition. Basic events are labelled "loss of '<name>'" and carry
/// core::loss_failure_rate(); a component without boundary IONodes throws
/// AnalysisError. Never enumerates paths, so dense graphs with order-4/5
/// cuts stay tractable.
core::FaultTree synthesize_fault_tree_zbdd(const ssam::SsamModel& ssam,
                                           ssam::ObjectId component,
                                           const ZbddFtaOptions& options = {});

}  // namespace decisive::fta
