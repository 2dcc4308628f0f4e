#include "decisive/core/fmeda.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/strings.hpp"

namespace decisive::core {

std::string_view to_string(EffectClass effect) noexcept {
  switch (effect) {
    case EffectClass::None: return "";
    case EffectClass::DVF: return "DVF";
    case EffectClass::IVF: return "IVF";
  }
  return "";
}

std::string_view to_string(FaultOutcome outcome) noexcept {
  switch (outcome) {
    case FaultOutcome::Converged: return "Converged";
    case FaultOutcome::RecoveredViaLadder: return "RecoveredViaLadder";
    case FaultOutcome::BudgetExhausted: return "BudgetExhausted";
    case FaultOutcome::Singular: return "Singular";
    case FaultOutcome::NotApplicable: return "NotApplicable";
    case FaultOutcome::Crashed: return "Crashed";
  }
  return "Converged";
}

std::string fmeda_row_tokens(const FmedaRow& row) {
  std::ostringstream out;
  out << escape_token(row.component) << ' ' << escape_token(row.component_type) << ' '
      << row.component_id << ' ' << escape_token(row.component_path) << ' '
      << double_to_token(row.fit) << ' ' << escape_token(row.failure_mode) << ' '
      << double_to_token(row.distribution) << ' ' << (row.safety_related ? 1 : 0) << ' '
      << static_cast<int>(row.effect) << ' ' << escape_token(row.safety_mechanism) << ' '
      << double_to_token(row.sm_coverage) << ' ' << double_to_token(row.sm_cost_hours);
  return out.str();
}

FmedaRow fmeda_row_from_tokens(const std::vector<std::string>& tokens, size_t first) {
  FmedaRow row;
  row.component = unescape_token(tokens[first + 0]);
  row.component_type = unescape_token(tokens[first + 1]);
  row.component_id = u64_from_token(tokens[first + 2]);
  row.component_path = unescape_token(tokens[first + 3]);
  row.fit = double_from_token(tokens[first + 4]);
  row.failure_mode = unescape_token(tokens[first + 5]);
  row.distribution = double_from_token(tokens[first + 6]);
  row.safety_related = u64_from_token(tokens[first + 7]) != 0;
  row.effect = effect_from_token(tokens[first + 8]);
  row.safety_mechanism = unescape_token(tokens[first + 9]);
  row.sm_coverage = double_from_token(tokens[first + 10]);
  row.sm_cost_hours = double_from_token(tokens[first + 11]);
  return row;
}

EffectClass effect_from_token(const std::string& token) {
  const std::uint64_t value = u64_from_token(token);
  if (value > 2) throw ParseError("bad effect class '" + token + "'");
  return static_cast<EffectClass>(value);
}

std::array<size_t, kFaultOutcomeCount> FmedaResult::outcome_counts() const {
  std::array<size_t, kFaultOutcomeCount> counts{};
  for (const auto& row : rows) counts[static_cast<size_t>(row.outcome)]++;
  return counts;
}

std::string FmedaResult::outcome_summary() const {
  const auto counts = outcome_counts();
  std::string out;
  static constexpr const char* kLabels[kFaultOutcomeCount] = {
      "converged", "recovered via ladder", "budget-exhausted", "singular",
      "not applicable", "crashed"};
  for (size_t i = 0; i < kFaultOutcomeCount; ++i) {
    if (counts[i] == 0 && i != static_cast<size_t>(FaultOutcome::Converged)) continue;
    if (!out.empty()) out += ", ";
    out += std::to_string(counts[i]) + " " + kLabels[i];
  }
  return out;
}

namespace {

/// Aggregation key for one component instance: the stable ObjectId when the
/// producer supplied one, the display name otherwise (id 0 — e.g. circuit
/// FMEA rows, where names are unique by construction).
using ComponentKey = std::pair<std::uint64_t, std::string>;

ComponentKey component_key(const FmedaRow& row) {
  return {row.component_id, row.component_id == 0 ? row.component : std::string()};
}

}  // namespace

std::vector<std::string> FmedaResult::safety_related_components() const {
  std::vector<std::string> out;
  std::set<ComponentKey> seen;
  for (const auto& row : rows) {
    if (row.safety_related && seen.insert(component_key(row)).second) {
      out.push_back(row.component);
    }
  }
  return out;
}

double FmedaResult::total_safety_related_fit() const {
  // Total FIT of each safety-related component, counted once per component
  // *identity* — duplicate names across recursion levels stay distinct.
  std::set<ComponentKey> counted;
  double total = 0.0;
  for (const auto& row : rows) {
    if (row.safety_related && counted.insert(component_key(row)).second) {
      total += row.fit;
    }
  }
  return total;
}

double FmedaResult::single_point_fit() const {
  double total = 0.0;
  for (const auto& row : rows) total += row.single_point_fit();
  return total;
}

bool FmedaResult::has_safety_related() const {
  return std::any_of(rows.begin(), rows.end(),
                     [](const FmedaRow& row) { return row.safety_related; });
}

double FmedaResult::spfm() const {
  const double denominator = total_safety_related_fit();
  const double residual = single_point_fit();
  if (!std::isfinite(denominator) || !std::isfinite(residual)) {
    throw AnalysisError("SPFM undefined: a safety-related FIT sum is not finite");
  }
  // Documented convention: an empty denominator (no safety-related hardware)
  // yields 1.0. Callers must not read that as ASIL-D — see asil_label().
  if (denominator <= 0.0) return 1.0;
  return 1.0 - residual / denominator;
}

std::string FmedaResult::asil_label() const {
  if (!has_safety_related()) return "no safety-related hardware";
  return achieved_asil(spfm());
}

void FmedaResult::warn_if_no_safety_related() {
  if (has_safety_related()) return;
  warnings.push_back(
      "no safety-related hardware identified; the SPFM denominator is empty and spfm() "
      "reports 1.0 by convention — this is not an ASIL-D claim");
}

std::vector<const FmedaRow*> FmedaResult::rows_of(std::string_view component) const {
  std::vector<const FmedaRow*> out;
  for (const auto& row : rows) {
    if (row.component == component) out.push_back(&row);
  }
  return out;
}

std::vector<const FmedaRow*> FmedaResult::rows_of(std::uint64_t component_id) const {
  std::vector<const FmedaRow*> out;
  for (const auto& row : rows) {
    if (row.component_id == component_id) out.push_back(&row);
  }
  return out;
}

namespace {

std::vector<std::string> render_row(const FmedaRow& row, bool first_of_component) {
  return {
      first_of_component ? row.component : "",
      first_of_component ? format_number(row.fit) : "",
      row.safety_related ? "Yes" : "No",
      row.failure_mode,
      format_percent(row.distribution, 0),
      row.safety_related ? (row.safety_mechanism.empty() ? "No SM" : row.safety_mechanism) : "",
      row.safety_related && !row.safety_mechanism.empty() ? format_percent(row.sm_coverage, 0)
                                                          : "",
      row.safety_related ? format_number(row.single_point_fit(), 3) + " FIT" : "",
  };
}

const std::vector<std::string> kFmedaHeader = {
    "Component",        "FIT",         "Safety_Related",
    "Failure_Mode",     "Distribution", "Safety_Mechanism",
    "SM_Coverage",      "Single_Point_Failure_Rate"};

}  // namespace

CsvTable FmedaResult::to_csv() const {
  // Machine-readable layout: every row fully populated, numeric columns
  // without unit suffixes, so downstream queries (assurance-case evidence
  // checks) can recompute metrics directly.
  CsvTable table;
  table.header = {"Component",   "Component_Type", "FIT",
                  "Safety_Related", "Failure_Mode", "Distribution",
                  "Safety_Mechanism", "SM_Coverage", "Mode_FIT",
                  "Single_Point_FIT", "Effect", "Fault_Outcome",
                  "Outcome_Detail"};
  table.rows.reserve(rows.size());
  for (const auto& row : rows) {
    auto& cells = table.rows.emplace_back(table.header.size());
    cells[0] = row.component;
    cells[1] = row.component_type;
    append_number(cells[2], row.fit);
    cells[3] = row.safety_related ? "Yes" : "No";
    cells[4] = row.failure_mode;
    append_number(cells[5], row.distribution);
    cells[6] = row.safety_mechanism;
    append_number(cells[7], row.sm_coverage);
    append_number(cells[8], row.mode_fit());
    append_number(cells[9], row.single_point_fit());
    cells[10] = to_string(row.effect);
    cells[11] = to_string(row.outcome);
    cells[12] = row.outcome_detail;
  }
  return table;
}

TextTable FmedaResult::to_text() const {
  TextTable table(kFmedaHeader);
  std::string previous;
  for (const auto& row : rows) {
    table.add_row(render_row(row, row.component != previous));
    previous = row.component;
  }
  return table;
}

namespace {

/// One rung of the ISO 26262 hardware-metric ladder.
struct AsilTargets {
  std::string_view label;
  double spfm;
  double lfm;
};

/// Most stringent first; ASIL-A and QM impose no metric target.
constexpr AsilTargets kAsilLadder[] = {
    {"ASIL-D", kSpfmTargetAsilD, kLfmTargetAsilD},
    {"ASIL-C", kSpfmTargetAsilC, kLfmTargetAsilC},
    {"ASIL-B", kSpfmTargetAsilB, kLfmTargetAsilB},
    {"ASIL-A", 0.0, 0.0},
};

/// The ladder rung of an ASIL name ("ASIL-B", "asil b", "B", "QM", ...).
const AsilTargets& parse_asil(std::string_view asil) {
  std::string a = to_lower(trim(asil));
  if (starts_with(a, "asil-") || starts_with(a, "asil ")) a = a.substr(5);
  else if (starts_with(a, "asil")) a = a.substr(4);
  if (a == "qm") a = "a";
  for (const AsilTargets& rung : kAsilLadder) {
    if (a == to_lower(rung.label.substr(5))) return rung;
  }
  throw AnalysisError("unknown ASIL '" + std::string(asil) + "'");
}

/// The most stringent rung whose `metric` target `value` meets. A metric
/// that is not finite never gets an ASIL.
std::string achieved(double value, double AsilTargets::*metric, std::string_view name) {
  if (!std::isfinite(value)) {
    throw AnalysisError(std::string(name) + " is not finite; no ASIL can be claimed");
  }
  for (const AsilTargets& rung : kAsilLadder) {
    if (value >= rung.*metric) return std::string(rung.label);
  }
  return "ASIL-A";  // below even ASIL-A's zero target (a negative metric)
}

}  // namespace

double spfm_target(std::string_view asil) { return parse_asil(asil).spfm; }

bool meets_asil(double spfm, std::string_view asil) { return spfm >= spfm_target(asil); }

std::string achieved_asil(double spfm) { return achieved(spfm, &AsilTargets::spfm, "SPFM"); }

double lfm_target(std::string_view asil) { return parse_asil(asil).lfm; }

bool meets_asil_lfm(double lfm, std::string_view asil) { return lfm >= lfm_target(asil); }

std::string achieved_asil_lfm(double lfm) { return achieved(lfm, &AsilTargets::lfm, "LFM"); }

}  // namespace decisive::core
