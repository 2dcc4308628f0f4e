#include "decisive/core/reliability.hpp"

#include "decisive/base/domain.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"

namespace decisive::core {

namespace {

/// Alias groups for component-type names.
const char* const kMcuAliases[] = {"mc", "mcu", "microcontroller", "micro controller"};

bool in_mcu_group(std::string_view name) noexcept {
  for (const char* alias : kMcuAliases) {
    if (iequals(name, alias)) return true;
  }
  return false;
}

double parse_fraction(std::string_view text) {
  std::string_view t = trim(text);
  bool percent = false;
  if (!t.empty() && t.back() == '%') {
    t.remove_suffix(1);
    percent = true;
  }
  double value = parse_double(t);
  if (percent) value /= 100.0;
  // Values like "30" in a Distribution column mean 30%.
  if (!percent && value > 1.0) value /= 100.0;
  return value;
}

}  // namespace

void check_fit(double fit, std::string_view owner) {
  check_non_negative<AnalysisError>(fit, "FIT", owner);
}

bool component_type_matches(std::string_view a, std::string_view b) noexcept {
  if (iequals(a, b)) return true;
  return in_mcu_group(a) && in_mcu_group(b);
}

void ReliabilityModel::add(std::string component_type, double fit,
                           std::vector<FailureModeSpec> modes) {
  check_fit(fit, component_type);
  double total = 0.0;
  for (const auto& mode : modes) {
    check_share<AnalysisError>(mode.distribution, "failure-mode distribution", mode.name);
    total += mode.distribution;
  }
  if (total > 1.0 + 1e-9) {
    throw AnalysisError("failure-mode distributions of '" + component_type +
                        "' sum to " + format_number(total) + " (> 1)");
  }
  for (auto& entry : entries_) {
    if (component_type_matches(entry.component_type, component_type)) {
      entry.fit = fit;
      for (auto& mode : modes) entry.modes.push_back(std::move(mode));
      return;
    }
  }
  entries_.push_back(ComponentReliability{std::move(component_type), fit, std::move(modes)});
}

const ComponentReliability* ReliabilityModel::find(
    std::string_view component_type) const noexcept {
  for (const auto& entry : entries_) {
    if (component_type_matches(entry.component_type, component_type)) return &entry;
  }
  return nullptr;
}

ReliabilityModel ReliabilityModel::from_table(const CsvTable& table) {
  for (const char* column : {"Component", "FIT", "Failure_Mode", "Distribution"}) {
    if (table.column(column) < 0) {
      throw AnalysisError("reliability table is missing column '" + std::string(column) + "'");
    }
  }
  ReliabilityModel model;
  std::string current_type;
  double current_fit = 0.0;
  std::vector<FailureModeSpec> current_modes;
  auto flush = [&] {
    if (!current_type.empty()) {
      model.add(current_type, current_fit, std::move(current_modes));
      current_modes = {};
    }
  };
  for (size_t i = 0; i < table.rows.size(); ++i) {
    const std::string component = std::string(trim(table.at(i, "Component")));
    const std::string fit_text = std::string(trim(table.at(i, "FIT")));
    const std::string mode = std::string(trim(table.at(i, "Failure_Mode")));
    const std::string dist = std::string(trim(table.at(i, "Distribution")));
    if (!component.empty()) {
      flush();
      current_type = component;
      if (fit_text.empty()) {
        throw AnalysisError("reliability row for '" + component + "' has no FIT");
      }
      current_fit = parse_double(fit_text);
    } else if (current_type.empty()) {
      throw AnalysisError("reliability table starts with a continuation row");
    }
    if (mode.empty()) {
      throw AnalysisError("reliability row " + std::to_string(i + 1) + " has no Failure_Mode");
    }
    current_modes.push_back(FailureModeSpec{mode, parse_fraction(dist)});
  }
  flush();
  return model;
}

ReliabilityModel ReliabilityModel::from_source(const drivers::DataSource& source,
                                               std::string_view table_name) {
  const CsvTable* table = source.table(table_name);
  if (table == nullptr) {
    throw AnalysisError("source '" + source.location() + "' has no table '" +
                        std::string(table_name) + "'");
  }
  return from_table(*table);
}

CsvTable ReliabilityModel::to_table() const {
  CsvTable table;
  table.header = {"Component", "FIT", "Failure_Mode", "Distribution"};
  for (const auto& entry : entries_) {
    bool first = true;
    for (const auto& mode : entry.modes) {
      table.rows.push_back({first ? entry.component_type : "",
                            first ? format_number(entry.fit) : "", mode.name,
                            format_percent(mode.distribution, 0)});
      first = false;
    }
  }
  return table;
}

}  // namespace decisive::core
