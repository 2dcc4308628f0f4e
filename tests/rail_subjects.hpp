// Supply-rail campaign subjects shared by the campaign-solver and sparse
// solver tests.
#pragma once

#include <cstdint>
#include <random>
#include <string>

#include "decisive/core/reliability.hpp"
#include "decisive/sim/builder.hpp"

namespace rail_subjects {

/// The bench_campaign rail: a pinned rail feeding `stages` taps, each a
/// series resistor into a diode-clamped, resistor-loaded tap with a voltage
/// sensor. Every resistor and diode is an FMEA candidate.
inline decisive::sim::BuiltCircuit bench_rail(int stages) {
  decisive::sim::BuiltCircuit built;
  decisive::sim::Circuit& c = built.circuit;
  const int vin = c.node("vin");
  const int rail = c.node("rail");
  c.add_vsource("V1", vin, 0, 12.0);
  c.add_current_sensor("CS", vin, rail);
  built.observables.push_back("CS");
  for (int s = 0; s < stages; ++s) {
    const std::string id = std::to_string(s);
    const int tap = c.node("tap" + id);
    c.add_resistor("R" + id, rail, tap, 100.0 + s);
    c.add_diode("D" + id, tap, 0);
    c.add_resistor("RL" + id, tap, 0, 1000.0);
    c.add_voltage_sensor("VS" + id, tap, 0);
    built.observables.push_back("VS" + id);
    built.components.push_back({"R" + id, "Resistor", "R" + id});
    built.components.push_back({"D" + id, "Diode", "D" + id});
  }
  return built;
}

inline decisive::core::ReliabilityModel bench_rail_reliability() {
  decisive::core::ReliabilityModel reliability;
  reliability.add("Resistor", 5.0, {{"Open", 0.5}, {"Short", 0.3}, {"Drift", 0.2}});
  reliability.add("Diode", 10.0, {{"Open", 0.3}, {"Short", 0.7}});
  return reliability;
}

/// Seeded randomized supply rail: a pinned rail feeding `stages` taps whose
/// load is randomly a diode, an inductor (a DC branch unknown — deleted by
/// its Open/Short faults, the partial-refactorisation specimen), or a plain
/// resistor. The source is an FMEA candidate too, so the fault list mixes
/// value-only faults with stamp-stream-changing ones.
inline decisive::sim::BuiltCircuit random_rail(std::uint32_t seed, int stages) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> series(50.0, 500.0);
  std::uniform_real_distribution<double> load(500.0, 5000.0);
  std::uniform_int_distribution<int> kind(0, 2);

  decisive::sim::BuiltCircuit built;
  decisive::sim::Circuit& c = built.circuit;
  const int vin = c.node("vin");
  const int rail = c.node("rail");
  c.add_vsource("V1", vin, 0, 12.0);
  c.add_current_sensor("CS", vin, rail);
  built.observables.push_back("CS");
  built.components.push_back({"V1", "Source", "V1"});
  for (int s = 0; s < stages; ++s) {
    const std::string id = std::to_string(s);
    const int tap = c.node("tap" + id);
    c.add_resistor("R" + id, rail, tap, series(rng));
    built.components.push_back({"R" + id, "Resistor", "R" + id});
    switch (kind(rng)) {
      case 0:
        c.add_diode("D" + id, tap, 0);
        built.components.push_back({"D" + id, "Diode", "D" + id});
        break;
      case 1:
        c.add_inductor("L" + id, tap, 0, 1e-3);
        built.components.push_back({"L" + id, "Inductor", "L" + id});
        break;
      default:
        break;
    }
    c.add_resistor("RL" + id, tap, 0, load(rng));
    if (s % 4 == 0) {
      c.add_voltage_sensor("VS" + id, tap, 0);
      built.observables.push_back("VS" + id);
    }
  }
  return built;
}

inline decisive::core::ReliabilityModel random_rail_reliability() {
  decisive::core::ReliabilityModel reliability;
  reliability.add("Source", 5.0, {{"Open", 0.3}, {"Short", 0.2}, {"Drift", 0.5}});
  reliability.add("Resistor", 5.0, {{"Open", 0.5}, {"Short", 0.3}, {"Drift", 0.2}});
  reliability.add("Diode", 10.0, {{"Open", 0.3}, {"Short", 0.7}});
  reliability.add("Inductor", 8.0, {{"Open", 0.6}, {"Short", 0.4}});
  return reliability;
}

}  // namespace rail_subjects
