// SsamModel — typed facade over a repository of SSAM objects.
//
// Wraps the reflective model framework with creation/navigation helpers for
// the SSAM metamodel, plus the external-model federation entry point
// (ExternalReference + extraction rule -> query result), paper Section IV-B6.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "decisive/model/repository.hpp"
#include "decisive/query/query.hpp"
#include "decisive/ssam/metamodel.hpp"

namespace decisive::ssam {

using model::ObjectId;

class SsamModel {
 public:
  explicit SsamModel(size_t memory_budget_bytes = static_cast<size_t>(-1));

  [[nodiscard]] const model::MetaPackage& meta() const { return metamodel(); }
  [[nodiscard]] model::FullLoadRepository& repo() noexcept { return repo_; }
  [[nodiscard]] const model::FullLoadRepository& repo() const noexcept { return repo_; }

  /// Shorthand object access.
  [[nodiscard]] model::ModelObject& obj(ObjectId id) { return repo_.get(id); }
  [[nodiscard]] const model::ModelObject& obj(ObjectId id) const { return repo_.get(id); }

  /// The (lazily created) MBSAPackage root.
  ObjectId mbsa_root();

  // -- package creation ------------------------------------------------------
  ObjectId create_requirement_package(std::string_view name);
  ObjectId create_hazard_package(std::string_view name);
  ObjectId create_component_package(std::string_view name);

  // -- requirements ----------------------------------------------------------
  ObjectId create_requirement(ObjectId package, std::string_view name, std::string_view text,
                              std::string_view integrity_level);
  ObjectId create_safety_requirement(ObjectId package, std::string_view name,
                                     std::string_view text, std::string_view integrity_level,
                                     std::string_view functional_part);
  /// Adds a relationship (kind: "derives"/"refines"/"conflicts").
  ObjectId relate_requirements(ObjectId package, std::string_view kind, ObjectId source,
                               ObjectId target);

  // -- hazards ---------------------------------------------------------------
  ObjectId create_hazard(ObjectId package, std::string_view name, std::string_view severity,
                         double probability, std::string_view integrity_level);
  ObjectId add_cause(ObjectId hazard, std::string_view name, std::string_view mechanism);
  ObjectId add_control_measure(ObjectId hazard, std::string_view name,
                               double effectiveness_of_verification);

  // -- architecture ----------------------------------------------------------
  /// Creates a component inside a ComponentPackage or as a subcomponent of
  /// another Component (the paper's nested Components).
  ObjectId create_component(ObjectId parent, std::string_view name);

  ObjectId add_io_node(ObjectId component, std::string_view name, std::string_view direction);

  /// Wires two IONodes inside `component` (a ComponentRelationship).
  ObjectId connect(ObjectId component, ObjectId source_node, ObjectId target_node);

  /// nature: "lossOfFunction" / "degraded" / "erroneous". Throws ModelError
  /// unless the distribution is in [0,1] (NaN fails).
  ObjectId add_failure_mode(ObjectId component, std::string_view name, double distribution,
                            std::string_view nature);

  /// Throws ModelError unless the coverage is in [0,1] and the cost a finite
  /// number >= 0 (NaN fails both); `covers_failure_mode` may be kNullObject
  /// for a component-wide mechanism.
  ObjectId add_safety_mechanism(ObjectId component, std::string_view name, double coverage,
                                double cost_hours, ObjectId covers_failure_mode);

  ObjectId add_function(ObjectId component, std::string_view name,
                        std::string_view tolerance_type);

  // -- base-module utilities ---------------------------------------------------
  /// Attaches an ExternalReference with a machine-executable extraction rule
  /// to any ModelElement.
  ObjectId add_external_reference(ObjectId element, std::string_view location,
                                  std::string_view model_type, std::string_view extraction_rule);

  /// "cite" traceability between any two elements.
  void cite(ObjectId from, ObjectId to);

  // -- navigation --------------------------------------------------------------
  /// Direct subcomponents of a component / components of a package.
  [[nodiscard]] std::vector<ObjectId> components_of(ObjectId parent) const;

  /// All components in the containment subtree (excluding `root` itself when
  /// it is a Component).
  [[nodiscard]] std::vector<ObjectId> all_components_under(ObjectId root) const;

  /// First element of a class with the given name attribute, or kNullObject.
  [[nodiscard]] ObjectId find_by_name(std::string_view class_name, std::string_view name) const;

  /// Total element count in the repository.
  [[nodiscard]] size_t size() const noexcept { return repo_.size(); }

 private:
  ObjectId create_named(std::string_view class_name, std::string_view name);

  model::FullLoadRepository repo_;
  ObjectId mbsa_root_ = model::kNullObject;
  std::uint64_t next_uid_ = 1;
};

/// Executes the extraction rule of an ExternalReference: opens the referenced
/// external model through the driver registry, binds it into a fresh query
/// environment, and evaluates the rule. This is the federation mechanism of
/// REQ2. Throws on missing rule/driver or rule errors.
query::Value run_extraction(const SsamModel& ssam, ObjectId external_reference);

}  // namespace decisive::ssam
