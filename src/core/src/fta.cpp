#include "decisive/core/fta.hpp"

#include <algorithm>
#include <set>

#include "decisive/base/strings.hpp"

namespace decisive::core {

using ssam::ObjectId;
using ssam::SsamModel;

namespace {

/// Summed distribution of a component's loss-nature failure modes.
double loss_fraction(const SsamModel& ssam, ObjectId component) {
  double fraction = 0.0;
  for (const ObjectId fm : ssam.obj(component).refs("failureModes")) {
    if (is_loss_failure_nature(ssam.obj(fm).get_string("nature"))) {
      fraction += ssam.obj(fm).get_real("distribution");
    }
  }
  return std::min(fraction, 1.0);
}

void render(const FaultTree& tree, size_t index, int depth, std::string& out) {
  const FaultTreeNode& node = tree.nodes[index];
  out.append(static_cast<size_t>(depth) * 2, ' ');
  switch (node.kind) {
    case GateKind::Or: out += "[OR] "; break;
    case GateKind::And: out += "[AND] "; break;
    case GateKind::Basic: out += "( ) "; break;
  }
  out += node.label;
  if (node.kind == GateKind::Basic) {
    out += " (lambda = " + format_number(node.failure_rate * 1e9, 3) + " FIT)";
  }
  out += '\n';
  for (const size_t child : node.children) render(tree, child, depth + 1, out);
}

}  // namespace

bool is_loss_failure_nature(const std::string& nature) {
  return iequals(nature, "lossOfFunction") || iequals(nature, "loss") ||
         iequals(nature, "open") || iequals(nature, "omission") ||
         iequals(nature, "no output");
}

double loss_failure_rate(const SsamModel& ssam, ObjectId component) {
  return ssam.obj(component).get_real("fit") * loss_fraction(ssam, component) * 1e-9;
}

std::string FaultTree::to_text() const {
  std::string out;
  if (!nodes.empty()) render(*this, 0, 0, out);
  if (truncated) {
    out += std::string(kFtaTruncationWarning);
    out += '\n';
  }
  return out;
}

std::vector<std::string> crosscheck_with_fmea(const SsamModel& ssam, const FaultTree& tree,
                                              const FmedaResult& fmea) {
  std::vector<std::string> issues;

  // Order-1 cut components by name.
  std::set<std::string> single_points;
  for (const auto& cut : tree.cut_sets) {
    if (cut.size() == 1) single_points.insert(ssam.obj(cut[0]).get_string("name"));
  }

  // FMEA loss-mode safety-related components.
  std::set<std::string> fmea_loss_sr;
  for (const auto& row : fmea.rows) {
    if (row.safety_related && row.effect == EffectClass::DVF) {
      fmea_loss_sr.insert(row.component);
    }
  }

  for (const auto& name : single_points) {
    if (!fmea_loss_sr.contains(name)) {
      issues.push_back("FTA order-1 cut '" + name + "' is not loss-safety-related in the FMEA");
    }
  }
  for (const auto& name : fmea_loss_sr) {
    if (!single_points.contains(name)) {
      issues.push_back("FMEA single point '" + name + "' is missing from the FTA order-1 cuts");
    }
  }
  return issues;
}

}  // namespace decisive::core
