// Structural well-formedness validation of SSAM models.
//
// The graphical SAME editor prevents many malformed constructs by
// construction; the headless library offers the same guarantees as an
// explicit validation pass run before analysis. Each finding carries the
// offending element and a stable rule id, so tooling can filter or gate on
// specific rules.
#pragma once

#include <string>
#include <vector>

#include "decisive/ssam/model.hpp"

namespace decisive::ssam {

struct ValidationFinding {
  std::string rule;      ///< stable id, e.g. "fm-distribution-sum"
  ObjectId element = model::kNullObject;
  std::string message;
};

/// Validation rules:
///   comp-fit-negative          Component.fit must be a finite number >= 0
///   fm-distribution-range      FailureMode.distribution must be in [0,1]
///   fm-distribution-sum        a component's mode distributions must sum <= 1
///   sm-coverage-range          SafetyMechanism.coverage must be in [0,1]
///   sm-covers-foreign          an SM must only cover its own component's modes
///   rel-endpoint-missing       ComponentRelationship needs both endpoints
///   rel-endpoint-scope         endpoints must be IONodes of the component or
///                              of one of its direct subcomponents
///   io-direction               IONode.direction must be "in", "out" or "inout"
///   composite-io               a component with subcomponents and
///                              relationships should expose boundary IONodes
///   name-collision             sibling components should have unique names
/// The FIT and range rules are base/domain.hpp's entry checks, so NaN (and an
/// infinite FIT) fails them as it fails the API entry points.
std::vector<ValidationFinding> validate(const SsamModel& ssam);

/// Renders findings as one line each.
std::string to_text(const SsamModel& ssam, const std::vector<ValidationFinding>& findings);

}  // namespace decisive::ssam
