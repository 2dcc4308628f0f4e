// Component reliability model (DECISIVE Step 3).
//
// Maps a component *type* to its FIT rate and failure-mode distribution, as
// aggregated from standards (MIL-HDBK-338B) or manufacturer data. The paper
// stores this in an Excel spreadsheet (Table II); here it loads from any
// row-oriented DataSource (workbook sheet, CSV) or is built programmatically.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/drivers/datasource.hpp"

namespace decisive::core {

/// One failure mode of a component type with its probability share.
struct FailureModeSpec {
  std::string name;     ///< "Open", "Short", "RAM Failure", ...
  double distribution;  ///< fraction of the component FIT, in [0,1]
};

/// Reliability data for one component type.
struct ComponentReliability {
  std::string component_type;  ///< "Diode", "Capacitor", "Inductor", "MC", ...
  double fit = 0.0;            ///< failures-in-time (1e-9 failures/hour)
  std::vector<FailureModeSpec> modes;
};

/// The reliability model: a lookup from component type to reliability data.
/// Type matching is case-insensitive and alias-aware ("MC" == "MCU" ==
/// "Microcontroller").
class ReliabilityModel {
 public:
  /// Adds (or extends) an entry. Throws AnalysisError when a distribution is
  /// outside [0,1] or the FIT fails check_fit.
  void add(std::string component_type, double fit, std::vector<FailureModeSpec> modes);

  /// Lookup by type; nullptr when unknown.
  [[nodiscard]] const ComponentReliability* find(std::string_view component_type) const noexcept;

  [[nodiscard]] const std::vector<ComponentReliability>& entries() const noexcept {
    return entries_;
  }

  /// Parses the paper's Table-II layout: columns Component, FIT,
  /// Failure_Mode, Distribution; blank Component/FIT cells continue the
  /// previous component's mode list. Distribution accepts "30%" or "0.3".
  static ReliabilityModel from_table(const CsvTable& table);

  /// Loads from a DataSource table (e.g. workbook sheet "Reliability").
  static ReliabilityModel from_source(const drivers::DataSource& source,
                                      std::string_view table_name);

  /// Serialises back to the Table-II layout.
  [[nodiscard]] CsvTable to_table() const;

 private:
  std::vector<ComponentReliability> entries_;
};

/// The one FIT domain check: throws AnalysisError unless `fit` is a finite
/// number >= 0. `owner` names the component (type) in the message. Used by
/// the reliability workbook and by session `set-fit`.
void check_fit(double fit, std::string_view owner);

/// True when the two component-type names refer to the same type
/// (case-insensitive, plus the MC/MCU/Microcontroller alias group).
bool component_type_matches(std::string_view a, std::string_view b) noexcept;

}  // namespace decisive::core
