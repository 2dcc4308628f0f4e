// Exact probabilistic quantification of a synthesised fault tree.
//
// The rare-event approximation sums the cut-set probabilities (saturated at
// 1.0). Here the minimal cut family is
// rebuilt as a ZBDD and evaluated exactly by Shannon decomposition (Rauzy's
// recursion over the monotone structure function), so overlapping cut sets
// are not double-counted:
//   P(f) = p_x · P(minimal(hi ∪ lo)) + (1 − p_x) · P(lo)
// For a coherent tree the exact value never exceeds the rare-event bound —
// an invariant the tests and bench_ext_fta assert on every subject.
//
// Importance measures per basic event, all from conditioned re-evaluations:
//   Birnbaum        B_i  = P(top | p_i = 1) − P(top | p_i = 0)
//   Fussell–Vesely  FV_i = P(∪ cuts containing i) / P(top)      (exact)
//   RAW             RAW_i = P(top | p_i = 1) / P(top)
//   RRW             RRW_i = P(top) / P(top | p_i = 0)
// Degenerate inputs stay finite: P(top) = 0 yields FV = 0, RAW = RRW = 1;
// a component whose repair drives P(top | p_i = 0) to zero is flagged
// `indispensable` (RRW diverges) instead of returning Inf.
#pragma once

#include <string>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/core/fta.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::fta {

struct ImportanceRow {
  ssam::ObjectId component = model::kNullObject;
  std::string label;
  double probability = 0.0;  ///< basic-event failure probability over the mission
  double birnbaum = 0.0;
  double fussell_vesely = 0.0;
  double raw = 1.0;  ///< risk achievement worth
  double rrw = 1.0;  ///< risk reduction worth (0 when indispensable)
  bool indispensable = false;
};

struct Quantification {
  double exact_probability = 0.0;   ///< BDD Shannon-decomposition value
  double rare_event_bound = 0.0;    ///< Σ cut-set probabilities (uncapped form capped at 1)
  std::vector<ImportanceRow> importance;  ///< FV-descending, then component id
};

/// Quantifies a fault tree's minimal cut sets over `mission_hours`. Throws
/// AnalysisError unless `mission_hours` is finite and >= 0 (as does
/// cut_sets_csv).
Quantification quantify(const core::FaultTree& tree, double mission_hours);

/// Cut sets as a CSV table: order, members, rare-event cut probability. A
/// truncated tree gains a trailing warning row so the cap is never silent.
CsvTable cut_sets_csv(const core::FaultTree& tree, double mission_hours);

}  // namespace decisive::fta
