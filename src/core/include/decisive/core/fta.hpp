// Fault Tree Analysis — the paper's future-work item 1 ("enhance SAME to
// include the model-based support for Fault Tree Analysis (FTA) and how FTA
// and FMEA can be federated for quantitative system safety analysis").
//
// This header holds the fault-tree *type* and the loss-of-function policy
// shared by every engine: the top event is "loss of the component's
// function" (no input→output path delivers), a cut set is a set of
// subcomponents whose joint loss-of-function severs every path, and each
// basic event carries the loss-mode failure rate from the FMEA data. The
// engine that synthesises trees is fta::synthesize_fault_tree_zbdd and the
// one that quantifies them is fta::quantify (src/fta). The path-enumeration
// synthesis and rare-event sum they are tested against live in the
// test-only support library (tests/support, `oracle::`).
//
// Federation with FMEA: cut sets of size one are exactly the single-point
// failures Algorithm 1 reports, which cross-validates the two analyses
// (`crosscheck_with_fmea`).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "decisive/core/fmeda.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::core {

/// Node kinds of a synthesised fault tree.
enum class GateKind { Or, And, Basic };

struct FaultTreeNode {
  GateKind kind = GateKind::Basic;
  std::string label;
  /// Basic events: the failing component + its loss failure rate (per hour).
  ssam::ObjectId component = model::kNullObject;
  double failure_rate = 0.0;  ///< lambda of the loss mode(s), in 1/h
  std::vector<size_t> children;  ///< indices into FaultTree::nodes
};

/// Warning line appended to to_text() / cut-set CSV when a tree is
/// truncated, so capped syntheses are never silent.
inline constexpr std::string_view kFtaTruncationWarning =
    "WARNING: cut-set synthesis truncated by the order bound; "
    "minimal cut sets above the bound may exist";

/// A synthesised fault tree. Node 0 is the top event.
struct FaultTree {
  std::string top_event;
  std::vector<FaultTreeNode> nodes;
  /// Minimal cut sets, as sets of component ids. Deterministically ordered:
  /// each cut sorted by component id, cuts sorted by (order, ids) — so
  /// to_text() is byte-stable across platforms and job counts.
  std::vector<std::vector<ssam::ObjectId>> cut_sets;
  /// True when the synthesis bound clipped the cut family. Conservative:
  /// minimal cut sets above the bound MAY exist (the probe errs towards
  /// flagging when its work budget runs out).
  bool truncated = false;

  /// Renders the tree as indented text (gates + basic events), with a
  /// trailing kFtaTruncationWarning line when `truncated` is set.
  [[nodiscard]] std::string to_text() const;
};

/// True for the failure-mode natures counted as "loss of function"
/// (lossOfFunction / loss / open / omission / "no output", case-insensitive).
bool is_loss_failure_nature(const std::string& nature);

/// Basic-event failure rate of a component (per hour): component FIT × the
/// summed distribution of its loss-nature failure modes (capped at 1) × 1e-9.
double loss_failure_rate(const ssam::SsamModel& ssam, ssam::ObjectId component);

/// Federation check (FTA <-> FMEA): compares the tree's order-1 cut sets
/// with the loss-mode safety-related components of an FMEA result. Returns
/// human-readable discrepancies (empty = the analyses agree).
std::vector<std::string> crosscheck_with_fmea(const ssam::SsamModel& ssam,
                                              const FaultTree& tree,
                                              const FmedaResult& fmea);

}  // namespace decisive::core
