#include "decisive/ssam/model.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "decisive/base/domain.hpp"
#include "decisive/base/error.hpp"
#include "decisive/drivers/datasource.hpp"

namespace decisive::ssam {

using model::kNullObject;
using model::ModelObject;

/// Every (name, object) pair the model has seen, as a chained hash table
/// keyed by the name's 32-bit hash: one 16-byte entry per name write and
/// four bytes per bucket, no copy of any name. A superset of the current
/// holders — a rename adds the new pair and leaves the old one, and a
/// collision adds candidates — so the lookup checks each candidate's
/// current name.
class SsamModel::NameIndex final : public model::AttributeObserver {
 public:
  void attribute_set(const ModelObject& object, const model::MetaAttribute& attribute,
                     const model::Value& value) override {
    if (attribute.name != "name") return;
    if (const auto* text = std::get_if<std::string>(&value)) add(hash_of(*text), object.id());
  }

  /// Calls `visit(id)` for every object that was ever given a name hashing
  /// like `name`.
  template <class Visit>
  void for_each_candidate(std::string_view name, Visit&& visit) const {
    if (heads_.empty()) return;
    const std::uint32_t hash = hash_of(name);
    for (std::uint32_t at = heads_[hash & (heads_.size() - 1)]; at != kEnd;
         at = entries_[at].next) {
      if (entries_[at].hash == hash) visit(entries_[at].id);
    }
  }

 private:
  static constexpr std::uint32_t kEnd = 0xffffffffU;
  struct Entry {
    std::uint32_t hash;
    std::uint32_t next;  ///< the bucket's previous entry, or kEnd
    ObjectId id;
  };

  static std::uint32_t hash_of(std::string_view name) {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
  }

  void add(std::uint32_t hash, ObjectId id) {
    if (entries_.size() >= heads_.size()) {
      // Keep at most one entry per bucket on average.
      heads_.assign(std::max<size_t>(1024, 2 * heads_.size()), kEnd);
      for (std::uint32_t at = 0; at < entries_.size(); ++at) link(at);
    }
    entries_.push_back({hash, kEnd, id});
    link(static_cast<std::uint32_t>(entries_.size() - 1));
  }

  void link(std::uint32_t at) {
    std::uint32_t& head = heads_[entries_[at].hash & (heads_.size() - 1)];
    entries_[at].next = head;
    head = at;
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> heads_;  ///< bucket -> newest entry; a power of two
};

SsamModel::SsamModel(size_t memory_budget_bytes)
    : repo_(memory_budget_bytes), names_(std::make_unique<NameIndex>()) {
  repo_.set_observer(names_.get());
}

SsamModel::~SsamModel() = default;
SsamModel::SsamModel(SsamModel&&) noexcept = default;
SsamModel& SsamModel::operator=(SsamModel&&) noexcept = default;

ObjectId SsamModel::create_named(std::string_view class_name, std::string_view name) {
  ModelObject& o = repo_.create(meta().get(class_name));
  o.set_string("uid", "ssam-" + std::to_string(next_uid_++));
  o.set_string("name", std::string(name));
  return o.id();
}

ObjectId SsamModel::mbsa_root() {
  if (mbsa_root_ == kNullObject) {
    mbsa_root_ = create_named(cls::MBSAPackage, "mbsa");
  }
  return mbsa_root_;
}

ObjectId SsamModel::create_requirement_package(std::string_view name) {
  const ObjectId id = create_named(cls::RequirementPackage, name);
  obj(mbsa_root()).add_ref("requirementPackages", id);
  return id;
}

ObjectId SsamModel::create_hazard_package(std::string_view name) {
  const ObjectId id = create_named(cls::HazardPackage, name);
  obj(mbsa_root()).add_ref("hazardPackages", id);
  return id;
}

ObjectId SsamModel::create_component_package(std::string_view name) {
  const ObjectId id = create_named(cls::ComponentPackage, name);
  obj(mbsa_root()).add_ref("componentPackages", id);
  return id;
}

ObjectId SsamModel::create_requirement(ObjectId package, std::string_view name,
                                       std::string_view text,
                                       std::string_view integrity_level) {
  const ObjectId id = create_named(cls::Requirement, name);
  obj(id).set_string("text", std::string(text));
  obj(id).set_string("integrityLevel", std::string(integrity_level));
  obj(package).add_ref("elements", id);
  return id;
}

ObjectId SsamModel::create_safety_requirement(ObjectId package, std::string_view name,
                                              std::string_view text,
                                              std::string_view integrity_level,
                                              std::string_view functional_part) {
  const ObjectId id = create_named(cls::SafetyRequirement, name);
  obj(id).set_string("text", std::string(text));
  obj(id).set_string("integrityLevel", std::string(integrity_level));
  obj(id).set_string("functionalPart", std::string(functional_part));
  obj(package).add_ref("elements", id);
  return id;
}

ObjectId SsamModel::relate_requirements(ObjectId package, std::string_view kind,
                                        ObjectId source, ObjectId target) {
  const ObjectId id = create_named(cls::RequirementRelationship,
                                   std::string(kind) + "-relationship");
  obj(id).set_string("kind", std::string(kind));
  obj(id).set_ref("source", source);
  obj(id).set_ref("target", target);
  obj(package).add_ref("elements", id);
  return id;
}

ObjectId SsamModel::create_hazard(ObjectId package, std::string_view name,
                                  std::string_view severity, double probability,
                                  std::string_view integrity_level) {
  const ObjectId id = create_named(cls::HazardousSituation, name);
  obj(id).set_string("severity", std::string(severity));
  obj(id).set_real("probability", probability);
  obj(id).set_string("integrityLevel", std::string(integrity_level));
  obj(package).add_ref("elements", id);
  return id;
}

ObjectId SsamModel::add_cause(ObjectId hazard, std::string_view name,
                              std::string_view mechanism) {
  const ObjectId id = create_named(cls::Cause, name);
  obj(id).set_string("mechanism", std::string(mechanism));
  obj(hazard).add_ref("causes", id);
  return id;
}

ObjectId SsamModel::add_control_measure(ObjectId hazard, std::string_view name,
                                        double effectiveness_of_verification) {
  const ObjectId id = create_named(cls::ControlMeasure, name);
  obj(id).set_real("effectivenessOfVerification", effectiveness_of_verification);
  obj(hazard).add_ref("controlMeasures", id);
  return id;
}

ObjectId SsamModel::create_component(ObjectId parent, std::string_view name) {
  const ObjectId id = create_named(cls::Component, name);
  ModelObject& p = obj(parent);
  if (p.is_kind_of(meta().get(cls::Component))) {
    p.add_ref("subcomponents", id);
  } else if (p.is_kind_of(meta().get(cls::ComponentPackage))) {
    p.add_ref("elements", id);
  } else {
    throw ModelError("components live in a ComponentPackage or another Component");
  }
  return id;
}

ObjectId SsamModel::add_io_node(ObjectId component, std::string_view name,
                                std::string_view direction) {
  if (direction != "in" && direction != "out" && direction != "inout") {
    throw ModelError("IONode direction must be 'in', 'out' or 'inout'");
  }
  const ObjectId id = create_named(cls::IONode, name);
  obj(id).set_string("direction", std::string(direction));
  obj(component).add_ref("ioNodes", id);
  return id;
}

ObjectId SsamModel::connect(ObjectId component, ObjectId source_node, ObjectId target_node) {
  const auto& io_cls = meta().get(cls::IONode);
  if (!obj(source_node).is_kind_of(io_cls) || !obj(target_node).is_kind_of(io_cls)) {
    throw ModelError("connect() endpoints must be IONodes");
  }
  const ObjectId id = create_named(cls::ComponentRelationship, "wire");
  obj(id).set_ref("source", source_node);
  obj(id).set_ref("target", target_node);
  obj(component).add_ref("relationships", id);
  return id;
}

ObjectId SsamModel::add_failure_mode(ObjectId component, std::string_view name,
                                     double distribution, std::string_view nature) {
  check_share<ModelError>(distribution, "failure-mode distribution", name);
  const ObjectId id = create_named(cls::FailureMode, name);
  obj(id).set_real("distribution", distribution);
  obj(id).set_string("nature", std::string(nature));
  obj(component).add_ref("failureModes", id);
  return id;
}

ObjectId SsamModel::add_safety_mechanism(ObjectId component, std::string_view name,
                                         double coverage, double cost_hours,
                                         ObjectId covers_failure_mode) {
  check_share<ModelError>(coverage, "safety-mechanism coverage", name);
  check_non_negative<ModelError>(cost_hours, "safety-mechanism cost", name);
  const ObjectId id = create_named(cls::SafetyMechanism, name);
  obj(id).set_real("coverage", coverage);
  obj(id).set_real("costHours", cost_hours);
  if (covers_failure_mode != kNullObject) obj(id).add_ref("covers", covers_failure_mode);
  obj(component).add_ref("safetyMechanisms", id);
  return id;
}

ObjectId SsamModel::add_function(ObjectId component, std::string_view name,
                                 std::string_view tolerance_type) {
  if (tolerance_type != "1oo1" && tolerance_type != "1oo2" && tolerance_type != "1oo3" &&
      tolerance_type != "2oo3") {
    throw ModelError("tolerance type must be one of 1oo1/1oo2/1oo3/2oo3");
  }
  const ObjectId id = create_named(cls::Function, name);
  obj(id).set_string("toleranceType", std::string(tolerance_type));
  obj(component).add_ref("functions", id);
  return id;
}

ObjectId SsamModel::add_external_reference(ObjectId element, std::string_view location,
                                           std::string_view model_type,
                                           std::string_view extraction_rule) {
  const ObjectId rule_id = create_named(cls::ImplementationConstraint, "extraction-rule");
  obj(rule_id).set_string("language", "decisive-query");
  obj(rule_id).set_string("body", std::string(extraction_rule));

  const ObjectId id = create_named(cls::ExternalReference, "external-reference");
  obj(id).set_string("location", std::string(location));
  obj(id).set_string("modelType", std::string(model_type));
  obj(id).set_ref("extractionRule", rule_id);
  obj(element).add_ref("externalReferences", id);
  return id;
}

void SsamModel::cite(ObjectId from, ObjectId to) { obj(from).add_ref("cites", to); }

std::vector<ObjectId> SsamModel::components_of(ObjectId parent) const {
  const ModelObject& p = obj(parent);
  std::vector<ObjectId> out;
  const auto& component_cls = meta().get(cls::Component);
  if (p.is_kind_of(component_cls)) {
    return p.refs("subcomponents");
  }
  if (p.is_kind_of(meta().get(cls::ComponentPackage))) {
    for (const ObjectId id : p.refs("elements")) {
      if (obj(id).is_kind_of(component_cls)) out.push_back(id);
    }
  }
  return out;
}

std::vector<ObjectId> SsamModel::all_components_under(ObjectId root) const {
  std::vector<ObjectId> out;
  std::vector<ObjectId> stack = components_of(root);
  while (!stack.empty()) {
    const ObjectId id = stack.back();
    stack.pop_back();
    out.push_back(id);
    for (const ObjectId sub : obj(id).refs("subcomponents")) stack.push_back(sub);
  }
  return out;
}

ObjectId SsamModel::find_by_name(std::string_view class_name, std::string_view name) const {
  const auto& wanted = meta().get(class_name);
  // The index holds only while it observes the repository (a repository
  // assigned over repo_ brings no observer along).
  if (!name.empty() && repo_.observer() == names_.get()) {
    ObjectId first = kNullObject;  // ids grow in creation order
    names_->for_each_candidate(name, [&](ObjectId id) {
      if (first != kNullObject && id >= first) return;
      const ModelObject& o = repo_.get(id);
      if (!o.is_kind_of(wanted)) return;
      const auto* text = std::get_if<std::string>(&o.get("name"));
      if (text != nullptr && *text == name) first = id;
    });
    return first;
  }
  return repo_.find_first([&](const ModelObject& o) {
    if (!o.is_kind_of(wanted)) return false;
    const auto* text = std::get_if<std::string>(&o.get("name"));
    return text != nullptr ? *text == name : name.empty();
  });
}

query::Value run_extraction(const SsamModel& ssam, ObjectId external_reference) {
  const ModelObject& ext = ssam.obj(external_reference);
  if (!ext.is_kind_of(ssam.meta().get(cls::ExternalReference))) {
    throw ModelError("run_extraction expects an ExternalReference");
  }
  const ObjectId rule_id = ext.ref("extractionRule");
  if (rule_id == kNullObject) {
    throw ModelError("external reference has no extraction rule");
  }
  const std::string body = ssam.obj(rule_id).get_string("body");
  if (body.empty()) throw ModelError("extraction rule body is empty");

  const std::string location = ext.get_string("location");
  const std::string type = ext.get_string("modelType");
  const auto source = drivers::DriverRegistry::global().open(location, type);

  query::Env env;
  source->bind(env);
  return query::eval(body, env);
}

}  // namespace decisive::ssam
