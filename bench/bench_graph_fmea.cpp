// Graph-FMEA engine throughput: dominator-based single-point analysis vs
// brute-force path enumeration on SSAM architectures.
//
// The dense case is the point: a fully-connected layered component has
// width^layers simple paths, so the old enumeration engine threw a
// path-explosion error where the dominator engine answers in one
// reachability + dominator-tree pass. This harness verifies up front that
// (a) enumeration really does explode on the dense model while the new
// engine completes, and (b) the FMEDA table is byte-identical for any
// --jobs value; then it times decision latency on sparse models where both
// engines work, the dense model only the new engine survives, and the
// serial-vs-parallel recursive walk.
#include <benchmark/benchmark.h>

#include "obs_bench.hpp"

#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/oracle/paths.hpp"
#include "decisive/ssam/graph.hpp"

using namespace decisive;
using ssam::ObjectId;
using ssam::SsamModel;

namespace {

struct Architecture {
  SsamModel model;
  ObjectId system = model::kNullObject;
};

/// A layered architecture: `layers` layers of `width` leaves each. With
/// `dense` wiring every leaf feeds every leaf of the next layer
/// (width^layers simple paths); otherwise each leaf feeds exactly one
/// (width paths in total).
std::unique_ptr<Architecture> make_layered(int layers, int width, bool dense) {
  auto arch = std::make_unique<Architecture>();
  SsamModel& m = arch->model;
  const auto pkg = m.create_component_package("bench");
  arch->system = m.create_component(pkg, "system");
  const auto sys_in = m.add_io_node(arch->system, "in", "in");
  const auto sys_out = m.add_io_node(arch->system, "out", "out");

  std::vector<std::vector<std::pair<ObjectId, ObjectId>>> grid;  // (in, out) per leaf
  for (int layer = 0; layer < layers; ++layer) {
    std::vector<std::pair<ObjectId, ObjectId>> row;
    for (int i = 0; i < width; ++i) {
      const std::string name = "L" + std::to_string(layer) + "C" + std::to_string(i);
      const auto comp = m.create_component(arch->system, name);
      m.obj(comp).set_real("fit", 10.0 + i);
      const auto in = m.add_io_node(comp, name + ".in", "in");
      const auto out = m.add_io_node(comp, name + ".out", "out");
      m.add_failure_mode(comp, "Open", 1.0, "lossOfFunction");
      row.emplace_back(in, out);
    }
    grid.push_back(std::move(row));
  }
  for (const auto& [in, out] : grid.front()) m.connect(arch->system, sys_in, in);
  for (size_t layer = 0; layer + 1 < grid.size(); ++layer) {
    for (size_t i = 0; i < grid[layer].size(); ++i) {
      if (dense) {
        for (const auto& [to_in, to_out] : grid[layer + 1]) {
          m.connect(arch->system, grid[layer][i].second, to_in);
        }
      } else {
        m.connect(arch->system, grid[layer][i].second, grid[layer + 1][i].first);
      }
    }
  }
  for (const auto& [in, out] : grid.back()) m.connect(arch->system, out, sys_out);
  return arch;
}

/// A system of `composites` serial composite subcomponents, each wrapping a
/// serial chain of `inner` leaves — gives the recursive walk `composites + 1`
/// independent units to analyse, so the thread pool has real work.
std::unique_ptr<Architecture> make_nested(int composites, int inner) {
  auto arch = std::make_unique<Architecture>();
  SsamModel& m = arch->model;
  const auto pkg = m.create_component_package("bench");
  arch->system = m.create_component(pkg, "system");
  const auto sys_in = m.add_io_node(arch->system, "in", "in");
  const auto sys_out = m.add_io_node(arch->system, "out", "out");
  ObjectId previous = sys_in;
  for (int c = 0; c < composites; ++c) {
    const std::string name = "unit" + std::to_string(c);
    const auto comp = m.create_component(arch->system, name);
    m.obj(comp).set_real("fit", 20.0);
    const auto in = m.add_io_node(comp, name + ".in", "in");
    const auto out = m.add_io_node(comp, name + ".out", "out");
    m.add_failure_mode(comp, "Open", 0.5, "lossOfFunction");
    m.connect(arch->system, previous, in);
    previous = out;
    ObjectId inner_previous = in;
    for (int i = 0; i < inner; ++i) {
      const std::string leaf_name = name + ".leaf" + std::to_string(i);
      const auto leaf = m.create_component(comp, leaf_name);
      m.obj(leaf).set_real("fit", 5.0);
      const auto leaf_in = m.add_io_node(leaf, leaf_name + ".in", "in");
      const auto leaf_out = m.add_io_node(leaf, leaf_name + ".out", "out");
      m.add_failure_mode(leaf, "Open", 1.0, "lossOfFunction");
      m.connect(comp, inner_previous, leaf_in);
      inner_previous = leaf_out;
    }
    m.connect(comp, inner_previous, out);
  }
  m.connect(arch->system, previous, sys_out);
  return arch;
}

std::vector<ObjectId> subcomponents_of(const ssam::ComponentGraph& graph) {
  std::set<ObjectId> unique;
  for (const auto& [node, owner] : graph.owner) unique.insert(owner);
  return {unique.begin(), unique.end()};
}

core::GraphFmeaOptions options_with_jobs(int jobs) {
  core::GraphFmeaOptions options;
  options.jobs = jobs;
  return options;
}

void expect(bool condition, const char* what) {
  if (!condition) {
    std::printf("MISMATCH: %s\n", what);
    throw std::runtime_error(what);
  }
}

/// Gate 1: the dense component really is out of reach of enumeration
/// (6^8 ~ 1.7M paths against a 100k guard) and the dominator engine
/// completes on it.
void verify_dense_case() {
  const auto arch = make_layered(/*layers=*/8, /*width=*/6, /*dense=*/true);
  const auto graph = ssam::build_graph(arch->model, arch->system);
  bool exploded = false;
  try {
    oracle::enumerate_paths(graph);
  } catch (const AnalysisError&) {
    exploded = true;
  }
  expect(exploded, "enumeration was expected to throw on the dense model");
  const ssam::SinglePointAnalysis analysis(graph);
  expect(analysis.has_path(), "dense model must have input->output paths");
  const auto result = core::analyze_component(arch->model, arch->system);
  expect(result.rows.size() == 48u, "dense model row count");
  std::printf("dense case: 6^8 paths abort enumeration; dominator engine "
              "analysed %zu rows over %zu live nodes\n",
              result.rows.size(), analysis.live_node_count());
}

/// Gate 2: the FMEDA table of the recursive walk is byte-identical for any
/// job count.
void verify_determinism() {
  const auto arch = make_nested(/*composites=*/8, /*inner=*/6);
  const auto serial =
      core::analyze_component(arch->model, arch->system, options_with_jobs(1));
  const auto parallel =
      core::analyze_component(arch->model, arch->system, options_with_jobs(8));
  expect(write_csv(serial.to_csv()) == write_csv(parallel.to_csv()),
         "parallel FMEDA table differs from serial");
  expect(serial.warnings == parallel.warnings,
         "parallel warnings differ from serial");
  std::printf("determinism verified: --jobs 1 and --jobs 8 byte-identical "
              "(%zu rows)\n\n",
              serial.rows.size());
}

/// Decision latency on graphs both engines can handle (width-2 dense
/// layering: 2^layers paths, still under the enumeration guard). Old engine:
/// materialise every path, then answer per subcomponent with on_all_paths.
void BM_DecideByEnumeration(benchmark::State& state) {
  const auto arch =
      make_layered(static_cast<int>(state.range(0)), 2, /*dense=*/true);
  const auto graph = ssam::build_graph(arch->model, arch->system);
  const auto subs = subcomponents_of(graph);
  size_t decisions = 0;
  for (auto _ : state) {
    const auto paths = oracle::enumerate_paths(graph);
    for (const ObjectId sub : subs) {
      benchmark::DoNotOptimize(oracle::on_all_paths(graph, paths, sub));
      ++decisions;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(decisions));
}
BENCHMARK(BM_DecideByEnumeration)
    ->ArgName("layers")
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

/// Same graphs, new engine: one pass answers every subcomponent without
/// ever materialising a path.
void BM_DecideByDominators(benchmark::State& state) {
  const auto arch =
      make_layered(static_cast<int>(state.range(0)), 2, /*dense=*/true);
  const auto graph = ssam::build_graph(arch->model, arch->system);
  const auto subs = subcomponents_of(graph);
  size_t decisions = 0;
  for (auto _ : state) {
    const ssam::SinglePointAnalysis analysis(graph);
    for (const ObjectId sub : subs) {
      benchmark::DoNotOptimize(analysis.is_single_point(sub));
      ++decisions;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(decisions));
}
BENCHMARK(BM_DecideByDominators)
    ->ArgName("layers")
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// The benchmarks that run analyze_component take a fixed iteration count, so
// the runs and units they add to the instrumentation snapshot — and the
// perf sentinel's units-per-run ratio pooled over them — do not depend on
// how fast the machine is.

/// The case that used to be impossible: full FMEA of the dense component.
void BM_DenseComponentFmea(benchmark::State& state) {
  auto arch = make_layered(/*layers=*/8, static_cast<int>(state.range(0)),
                           /*dense=*/true);
  for (auto _ : state) {
    const auto result = core::analyze_component(arch->model, arch->system);
    benchmark::DoNotOptimize(result.spfm());
  }
}
BENCHMARK(BM_DenseComponentFmea)
    ->ArgName("width")
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Iterations(200)
    ->Unit(benchmark::kMillisecond);

/// Recursive walk throughput: serial vs all-cores on a many-unit model.
void BM_RecursiveWalkJobs(benchmark::State& state) {
  auto arch = make_nested(/*composites=*/24, /*inner=*/12);
  const auto options = options_with_jobs(static_cast<int>(state.range(0)));
  size_t rows = 0;
  for (auto _ : state) {
    const auto result =
        core::analyze_component(arch->model, arch->system, options);
    benchmark::DoNotOptimize(result.spfm());
    rows += result.rows.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_RecursiveWalkJobs)
    ->ArgName("jobs")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)  // all cores
    ->Iterations(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("hardware concurrency: %u\n", std::thread::hardware_concurrency());
  verify_dense_case();
  verify_determinism();
  return bench_obs::run_benchmarks(argc, argv, "graph_fmea");
}
