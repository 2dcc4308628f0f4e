// Seeded input generation. Runs in its own process (`loopbench generate`),
// so neither its time nor its memory shows in the measured run: the program
// under test only ever sees the files written here.
#include <algorithm>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>

#include "decisive/base/csv.hpp"
#include "decisive/core/reliability.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/drivers/mdl.hpp"
#include "decisive/model/xmi.hpp"
#include "loopbench.hpp"

namespace loopbench {

namespace fs = std::filesystem;
using namespace decisive;

namespace {

std::string exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

drivers::MdlBlock block(std::string type, std::string name,
                        std::vector<std::pair<std::string, std::string>> params = {}) {
  drivers::MdlBlock b;
  b.type = std::move(type);
  b.name = std::move(name);
  b.params = std::move(params);
  return b;
}

/// A supply rail of `stages` taps: V1 -> CS -> R<i> -> tap<i>, each tap
/// loaded by RL<i> plus a diode, an inductor or nothing, with a voltage
/// sensor on every fourth tap (the random_rail shape of the sparse solver
/// tests). The three load kinds come in equal thirds in a seeded order, so
/// every seed yields the same fault-task count while values and placement
/// vary.
void generate_rail(std::uint32_t seed, int stages, const fs::path& dir) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> series(50.0, 500.0);
  std::uniform_real_distribution<double> load(500.0, 5000.0);
  std::vector<int> kinds(static_cast<size_t>(stages));
  for (size_t s = 0; s < kinds.size(); ++s) kinds[s] = static_cast<int>(s % 3);
  std::shuffle(kinds.begin(), kinds.end(), rng);

  drivers::MdlModel mdl;
  mdl.name = "loopbench_rail";
  mdl.root.name = "rail";
  auto& blocks = mdl.root.blocks;
  auto& lines = mdl.root.lines;
  auto wire = [&lines](std::string src, std::string src_port, std::string dst,
                       std::string dst_port) {
    lines.push_back({std::move(src), std::move(src_port), std::move(dst), std::move(dst_port)});
  };
  blocks.push_back(block("DCVoltageSource", "V1", {{"Voltage", "12"}}));
  blocks.push_back(block("CurrentSensor", "CS"));
  blocks.push_back(block("Ground", "GND"));
  wire("V1", "p", "CS", "p");
  wire("V1", "n", "GND", "g");
  for (int s = 0; s < stages; ++s) {
    const std::string id = std::to_string(s);
    blocks.push_back(block("Resistor", "R" + id, {{"Resistance", exact(series(rng))}}));
    wire("CS", "n", "R" + id, "p");
    switch (kinds[static_cast<size_t>(s)]) {
      case 0:
        blocks.push_back(block("Diode", "D" + id));
        wire("R" + id, "n", "D" + id, "a");
        wire("D" + id, "k", "GND", "g");
        break;
      case 1:
        blocks.push_back(block("Inductor", "L" + id, {{"Inductance", "0.001"}}));
        wire("R" + id, "n", "L" + id, "p");
        wire("L" + id, "n", "GND", "g");
        break;
      default:
        break;
    }
    blocks.push_back(block("Resistor", "RL" + id, {{"Resistance", exact(load(rng))}}));
    wire("R" + id, "n", "RL" + id, "p");
    wire("RL" + id, "n", "GND", "g");
    if (s % 4 == 0) {
      blocks.push_back(block("VoltageSensor", "VS" + id));
      wire("R" + id, "n", "VS" + id, "p");
      wire("VS" + id, "n", "GND", "g");
    }
  }
  drivers::write_mdl_file((dir / "rail.mdl").string(), mdl);

  // Value-only faults (Drift) next to structural ones (Open/Short).
  core::ReliabilityModel reliability;
  reliability.add("DCVoltageSource", 5.0, {{"Open", 0.3}, {"Short", 0.2}, {"Drift", 0.5}});
  reliability.add("Resistor", 5.0, {{"Open", 0.5}, {"Short", 0.3}, {"Drift", 0.2}});
  reliability.add("Diode", 10.0, {{"Open", 0.3}, {"Short", 0.7}});
  reliability.add("Inductor", 8.0, {{"Open", 0.6}, {"Short", 0.4}});
  fs::create_directories(dir / "workbook");
  write_csv_file((dir / "workbook" / "Reliability.csv").string(), reliability.to_table());
}

/// make_scaled_architecture with every component's FIT scaled by a seeded
/// factor in [0.5, 2): same structure for every seed, different numbers.
void generate_architecture(std::uint32_t seed, size_t composites, size_t leaves, size_t width,
                           const fs::path& dir) {
  auto sys = core::make_scaled_architecture(composites, leaves, width);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> factor(0.5, 2.0);
  auto& model = *sys.model;
  for (const auto id : model.repo().all_of(model.meta().get(ssam::cls::Component))) {
    auto& component = model.obj(id);
    const double fit = component.get_real("fit", 0.0);
    if (fit > 0.0) component.set_real("fit", fit * factor(rng));
  }
  model::save_xmi_file((dir / "design.xmi").string(), model.repo(), model.meta());
}

}  // namespace

void generate_inputs(const std::string& workload, std::uint32_t seed, const Sizes& sizes,
                     const fs::path& dir) {
  fs::create_directories(dir);
  if (workload == "campaign_rail") {
    generate_rail(seed, sizes.rail_stages, dir);
  } else if (workload == "edit_loop") {
    generate_architecture(seed, sizes.edit_composites, sizes.edit_leaves, 1, dir);
  } else if (workload == "design_pass") {
    generate_architecture(seed, sizes.design_composites, sizes.design_leaves,
                          sizes.design_width, dir);
    write_csv_file((dir / "catalogue.csv").string(), core::scaled_sm_catalogue().to_table());
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
}

}  // namespace loopbench
