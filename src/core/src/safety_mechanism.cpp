#include "decisive/core/safety_mechanism.hpp"

#include "decisive/base/domain.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/core/reliability.hpp"

namespace decisive::core {

void SafetyMechanismModel::add(SafetyMechanismSpec spec) {
  check_share<AnalysisError>(spec.coverage, "safety-mechanism coverage", spec.name);
  check_non_negative<AnalysisError>(spec.cost_hours, "safety-mechanism cost", spec.name);
  entries_.push_back(std::move(spec));
}

std::vector<const SafetyMechanismSpec*> SafetyMechanismModel::applicable(
    std::string_view component_type, std::string_view failure_mode) const {
  std::vector<const SafetyMechanismSpec*> out;
  for (const auto& entry : entries_) {
    if (component_type_matches(entry.component_type, component_type) &&
        iequals(entry.failure_mode, failure_mode)) {
      out.push_back(&entry);
    }
  }
  return out;
}

const SafetyMechanismSpec* SafetyMechanismModel::best(std::string_view component_type,
                                                      std::string_view failure_mode) const {
  const SafetyMechanismSpec* best_spec = nullptr;
  for (const SafetyMechanismSpec* spec : applicable(component_type, failure_mode)) {
    if (best_spec == nullptr || spec->coverage > best_spec->coverage) best_spec = spec;
  }
  return best_spec;
}

SafetyMechanismModel SafetyMechanismModel::from_table(const CsvTable& table) {
  for (const char* column : {"Component", "Failure_Mode", "Safety_Mechanism", "Cov."}) {
    if (table.column(column) < 0) {
      throw AnalysisError("safety-mechanism table is missing column '" + std::string(column) +
                          "'");
    }
  }
  const bool has_cost = table.column("Cost(hrs)") >= 0;
  SafetyMechanismModel model;
  for (size_t i = 0; i < table.rows.size(); ++i) {
    SafetyMechanismSpec spec;
    spec.component_type = std::string(trim(table.at(i, "Component")));
    spec.failure_mode = std::string(trim(table.at(i, "Failure_Mode")));
    spec.name = std::string(trim(table.at(i, "Safety_Mechanism")));
    std::string_view cov = trim(table.at(i, "Cov."));
    bool percent = false;
    if (!cov.empty() && cov.back() == '%') {
      cov.remove_suffix(1);
      percent = true;
    }
    spec.coverage = parse_double(cov);
    if (percent || spec.coverage > 1.0) spec.coverage /= 100.0;
    if (has_cost) {
      const std::string_view cost = trim(table.at(i, "Cost(hrs)"));
      spec.cost_hours = cost.empty() ? 0.0 : parse_double(cost);
    }
    model.add(std::move(spec));
  }
  return model;
}

SafetyMechanismModel SafetyMechanismModel::from_source(const drivers::DataSource& source,
                                                       std::string_view table_name) {
  const CsvTable* table = source.table(table_name);
  if (table == nullptr) {
    throw AnalysisError("source '" + source.location() + "' has no table '" +
                        std::string(table_name) + "'");
  }
  return from_table(*table);
}

SafetyMechanismModel SafetyMechanismModel::load_catalogue(const std::string& location) {
  const auto source = drivers::DriverRegistry::global().open(location);
  const std::string_view table =
      source->table("SafetyMechanisms") != nullptr ? "SafetyMechanisms" : "";
  return from_source(*source, table);
}

CsvTable SafetyMechanismModel::to_table() const {
  CsvTable table;
  table.header = {"Component", "Failure_Mode", "Safety_Mechanism", "Cov.", "Cost(hrs)"};
  for (const auto& entry : entries_) {
    table.rows.push_back({entry.component_type, entry.failure_mode, entry.name,
                          format_percent(entry.coverage, 0),
                          format_number(entry.cost_hours, 2)});
  }
  return table;
}

}  // namespace decisive::core
