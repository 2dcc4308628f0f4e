// Safety-mechanism model (DECISIVE Step 4b).
//
// Catalogue of deployable safety mechanisms per (component type, failure
// mode) with diagnostic coverage and engineering cost — the paper's Table III
// spreadsheet. SAME uses it to automate safety-mechanism deployment.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/drivers/datasource.hpp"

namespace decisive::core {

/// One catalogue entry.
struct SafetyMechanismSpec {
  std::string component_type;  ///< e.g. "MCU"
  std::string failure_mode;    ///< e.g. "RAM Failure"
  std::string name;            ///< e.g. "ECC"
  double coverage = 0.0;       ///< diagnostic coverage, in [0,1]
  double cost_hours = 0.0;     ///< deployment cost in engineering hours
};

class SafetyMechanismModel {
 public:
  /// Adds an entry; throws AnalysisError unless the coverage is in [0,1]
  /// and the cost a finite number >= 0 (NaN fails both).
  void add(SafetyMechanismSpec spec);

  /// All mechanisms applicable to (component type, failure mode), in
  /// catalogue order. Matching is case-insensitive/alias-aware on the type
  /// and case-insensitive on the failure-mode name.
  [[nodiscard]] std::vector<const SafetyMechanismSpec*> applicable(
      std::string_view component_type, std::string_view failure_mode) const;

  /// The highest-coverage applicable mechanism, or nullptr.
  [[nodiscard]] const SafetyMechanismSpec* best(std::string_view component_type,
                                                std::string_view failure_mode) const;

  [[nodiscard]] const std::vector<SafetyMechanismSpec>& entries() const noexcept {
    return entries_;
  }

  /// Parses the Table-III layout: Component, Failure_Mode, Safety_Mechanism,
  /// Cov., Cost(hrs). "Cov." accepts "99%" or "0.99"; Cost(hrs) is optional.
  static SafetyMechanismModel from_table(const CsvTable& table);

  /// Loads from a DataSource table (e.g. workbook sheet "SafetyMechanisms").
  static SafetyMechanismModel from_source(const drivers::DataSource& source,
                                          std::string_view table_name);

  /// Loads a catalogue from any tabular location the driver registry opens:
  /// a workbook directory with a SafetyMechanisms sheet, or a bare CSV file
  /// (whose single table answers to the empty name whatever the file stem).
  static SafetyMechanismModel load_catalogue(const std::string& location);

  [[nodiscard]] CsvTable to_table() const;

 private:
  std::vector<SafetyMechanismSpec> entries_;
};

}  // namespace decisive::core
