#include "decisive/core/circuit_fmea.hpp"

#include <algorithm>
#include <cmath>

#include "decisive/core/campaign.hpp"

namespace decisive::core {

double observable_deviation(double before, double after, double absolute_floor) {
  const double reference = std::max(std::abs(before), absolute_floor);
  return std::abs(after - before) / reference;
}

std::string CampaignExecution::published_heartbeat_path() const {
  if (!heartbeat_path.empty() || journal_path.empty()) return heartbeat_path;
  return journal_path + ".heartbeat.json";
}

bool CircuitFmeaOptions::is_goal_observable(const std::string& name) const {
  if (safety_goal_observables.empty()) return true;
  return std::find(safety_goal_observables.begin(), safety_goal_observables.end(), name) !=
         safety_goal_observables.end();
}

FmedaResult analyze_circuit(const sim::BuiltCircuit& built, const ReliabilityModel& reliability,
                            const SafetyMechanismModel* sm_model,
                            const CircuitFmeaOptions& options) {
  return CampaignRunner(built, reliability, sm_model, options).run();
}

}  // namespace decisive::core
