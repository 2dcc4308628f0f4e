// Change-impact analysis.
//
// DECISIVE is iterative: "whenever there are changes to the system
// definition or system requirements, or when new hazards are identified,
// the DECISIVE process shall be repeated to determine the impacts of the
// changes" (paper Section III), managed under a proper change-management
// process (ISO 26262 Clause 8). This module computes, for a changed
// component, the set of artefacts the next iteration must revisit — using
// exactly the traceability SSAM records (containment, relationships,
// citations, failure-mode/hazard links, deployed mechanisms).
#pragma once

#include <string>
#include <vector>

#include "decisive/ssam/model.hpp"

namespace decisive::core {

struct ImpactReport {
  ssam::ObjectId changed = model::kNullObject;

  /// Containment ancestors (parent component/package chain): their analyses
  /// embed the changed component.
  std::vector<ssam::ObjectId> ancestors;
  /// Sibling components wired to the changed one (signal neighbours).
  std::vector<ssam::ObjectId> connected_components;
  /// Requirements citing the changed component (allocation traceability).
  std::vector<ssam::ObjectId> requirements;
  /// Hazards reachable from the changed component's failure modes.
  std::vector<ssam::ObjectId> hazards;
  /// Safety mechanisms deployed on the changed component (coverage claims
  /// that must be re-validated).
  std::vector<ssam::ObjectId> safety_mechanisms;
  /// True when any of the component's failure modes carries a safety-related
  /// verdict — the FMEA (Step 4a) must be re-run before the change lands.
  bool reanalysis_required = false;

  [[nodiscard]] std::string to_text(const ssam::SsamModel& ssam) const;
};

/// Computes the impact set of changing `component`.
/// Throws ModelError when `component` is not a Component.
ImpactReport impact_of_change(const ssam::SsamModel& ssam, ssam::ObjectId component);

}  // namespace decisive::core
