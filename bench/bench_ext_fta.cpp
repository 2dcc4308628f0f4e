// Extension benchmark: the ZBDD fault-tree engine against the
// path-enumeration oracle (tests/support). Three gates run before the
// benchmarks and fail the binary on violation:
//   1. identity   — ZBDD cut sets and rendered tree byte-identical to the
//                   oracle on every subject where the oracle completes;
//   2. speedup    — cut-set synthesis on the width-3 scaled subject (19683
//                   paths) at least 10x faster than enumeration;
//   3. reach      — the width-4/5 scaled subjects (262144 / ~2M paths) are
//                   out of the oracle's path budget yet complete under ZBDD,
//                   with the exact probability below the rare-event bound.
#include <benchmark/benchmark.h>

#include "obs_bench.hpp"

#include <chrono>
#include <functional>
#include <cstdio>
#include <stdexcept>

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/base/table.hpp"
#include "decisive/core/fta.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/fta/lfm.hpp"
#include "decisive/fta/quantify.hpp"
#include "decisive/oracle/fta.hpp"

using namespace decisive;

namespace {

void expect(bool condition, const char* what) {
  if (!condition) {
    std::printf("MISMATCH: %s\n", what);
    throw std::runtime_error(what);
  }
}

double time_one(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

void print_summary() {
  std::printf("== Extension: ZBDD fault-tree analysis of the evaluation subjects ==\n\n");
  TextTable table({"System", "components on paths", "minimal cut sets", "order-1",
                   "P(top | 10kh) exact", "rare-event bound", "top contributor (FV)"});
  for (const auto& [make, name] :
       {std::pair{&core::make_system_a, "A"}, std::pair{&core::make_system_b, "B"}}) {
    auto system = make();
    const auto tree = fta::synthesize_fault_tree_zbdd(*system.model, system.system);
    size_t order1 = 0;
    for (const auto& cut : tree.cut_sets) {
      if (cut.size() == 1) ++order1;
    }
    size_t basics = 0;
    for (const auto& node : tree.nodes) {
      if (node.kind == core::GateKind::Basic) ++basics;
    }
    const auto quant = fta::quantify(tree, 10000.0);
    char exact[32];
    char bound[32];
    std::snprintf(exact, sizeof(exact), "%.3e", quant.exact_probability);
    std::snprintf(bound, sizeof(bound), "%.3e", quant.rare_event_bound);
    table.add_row({name, std::to_string(basics), std::to_string(tree.cut_sets.size()),
                   std::to_string(order1), exact, bound,
                   quant.importance.empty()
                       ? "-"
                       : quant.importance.front().label + " (" +
                             format_percent(quant.importance.front().fussell_vesely) +
                             ")"});
  }
  std::printf("%s\n", table.render().c_str());

  // Federation: the FTA and FMEA agree modulo non-loss-mode structural
  // criticality (reported, not hidden), and the cut sets drive the ISO 26262
  // latent/multi-point split.
  auto system_b = core::make_system_b();
  const auto tree = fta::synthesize_fault_tree_zbdd(*system_b.model, system_b.system);
  const auto fmea = core::analyze_component(*system_b.model, system_b.system);
  const auto issues = core::crosscheck_with_fmea(*system_b.model, tree, fmea);
  std::printf("FTA/FMEA federation on System B: %zu finding(s)\n", issues.size());
  for (const auto& issue : issues) std::printf("  %s\n", issue.c_str());
  const auto lfm = fta::classify_latent(*system_b.model, tree, fmea);
  std::printf("System B latent classification: %s\n\n", lfm.asil_label().c_str());
}

/// Gate 1: ZBDD output byte-identical to the enumeration oracle wherever the
/// oracle completes, and the exact probability never above the bound.
void verify_identity() {
  struct Subject {
    const char* name;
    core::SyntheticSystem system;
    size_t oracle_bound;  // large enough to enumerate every minimal cut
  };
  Subject subjects[] = {
      {"System A", core::make_system_a(), 4},
      {"System B", core::make_system_b(), 6},
      {"scaled 6x2 serial", core::make_scaled_architecture(6, 2), 3},
      {"scaled 4x2 width-2", core::make_scaled_architecture(4, 2, 2), 3},
      {"scaled 5x1 width-3", core::make_scaled_architecture(5, 1, 3), 3},
  };
  for (auto& subject : subjects) {
    oracle::FtaOptions options;
    options.max_cut_set_size = subject.oracle_bound;
    const auto oracle_tree =
        oracle::synthesize_fault_tree(*subject.system.model, subject.system.system, options);
    const auto zbdd =
        fta::synthesize_fault_tree_zbdd(*subject.system.model, subject.system.system);
    expect(oracle_tree.cut_sets == zbdd.cut_sets, "ZBDD cut sets differ from the oracle");
    expect(oracle_tree.to_text() == zbdd.to_text(), "rendered trees differ from the oracle");
    const auto quant = fta::quantify(zbdd, 10000.0);
    expect(quant.exact_probability <= quant.rare_event_bound + 1e-12,
           "exact probability above the rare-event bound");
    std::printf("identity ok: %-20s %zu cut set(s), exact %.3e <= bound %.3e\n",
                subject.name, zbdd.cut_sets.size(), quant.exact_probability,
                quant.rare_event_bound);
  }
  std::printf("\n");
}

/// Gate 2: on the width-3 scaled subject (3^9 = 19683 paths) ZBDD synthesis
/// beats path enumeration by at least 10x.
void verify_speedup() {
  auto subject = core::make_scaled_architecture(9, 1, 3);
  oracle::FtaOptions options;
  options.max_cut_set_size = 3;
  core::FaultTree oracle_tree;
  core::FaultTree zbdd_tree;
  // Warm pass (page in the model, size the arenas) before timing.
  oracle_tree = oracle::synthesize_fault_tree(*subject.model, subject.system, options);
  zbdd_tree = fta::synthesize_fault_tree_zbdd(*subject.model, subject.system);
  expect(oracle_tree.cut_sets == zbdd_tree.cut_sets,
         "speedup subject: cut sets differ from the oracle");
  const double oracle_s = time_one([&] {
    oracle_tree = oracle::synthesize_fault_tree(*subject.model, subject.system, options);
  });
  const double zbdd_s = time_one([&] {
    zbdd_tree = fta::synthesize_fault_tree_zbdd(*subject.model, subject.system);
  });
  const double speedup = zbdd_s > 0.0 ? oracle_s / zbdd_s : 1e9;
  std::printf("speedup gate: width-3 x9 synthesis oracle %.3fs vs zbdd %.6fs (%.1fx)\n\n",
              oracle_s, zbdd_s, speedup);
  expect(speedup >= 10.0, "ZBDD synthesis speedup below the 10x floor");
}

/// Gate 3: the width-4 and width-5 subjects exceed the oracle's path budget
/// (AnalysisError) but stay tractable under ZBDD.
void verify_reach() {
  for (const size_t width : {size_t{4}, size_t{5}}) {
    auto subject = core::make_scaled_architecture(9, 1, width);
    bool oracle_threw = false;
    try {
      (void)oracle::synthesize_fault_tree(*subject.model, subject.system);
    } catch (const AnalysisError&) {
      oracle_threw = true;
    }
    expect(oracle_threw, "oracle unexpectedly completed the wide scaled subject");
    const auto tree = fta::synthesize_fault_tree_zbdd(*subject.model, subject.system);
    expect(tree.cut_sets.size() == 9, "wide scaled subject: expected 9 minimal cut sets");
    for (const auto& cut : tree.cut_sets) {
      expect(cut.size() == width, "wide scaled subject: cut order != stage width");
    }
    expect(!tree.truncated, "wide scaled subject: unbounded synthesis reported truncation");
    const auto quant = fta::quantify(tree, 10000.0);
    expect(quant.exact_probability > 0.0 &&
               quant.exact_probability <= quant.rare_event_bound + 1e-12,
           "wide scaled subject: exact probability outside (0, bound]");
    std::printf(
        "reach gate: width-%zu x9 (oracle path budget exceeded) -> %zu order-%zu cuts, "
        "exact %.3e\n",
        width, tree.cut_sets.size(), width, quant.exact_probability);
  }
  std::printf("\n");
}

void BM_ZbddSynthesizeA(benchmark::State& state) {
  auto system = core::make_system_a();
  for (auto _ : state) {
    const auto tree = fta::synthesize_fault_tree_zbdd(*system.model, system.system);
    benchmark::DoNotOptimize(tree.cut_sets.size());
  }
}
BENCHMARK(BM_ZbddSynthesizeA)->Unit(benchmark::kMicrosecond);

// Head-to-head on scaled subjects the oracle can still finish. Args are
// {stages, width}; the width-2 subject uses fewer stages so the oracle's
// truncation probe stays inside its budget (no per-iteration warning spam).
void BM_OracleSynthesizeScaled(benchmark::State& state) {
  auto system = core::make_scaled_architecture(static_cast<size_t>(state.range(0)), 1,
                                               static_cast<size_t>(state.range(1)));
  oracle::FtaOptions options;
  options.max_cut_set_size = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    const auto tree = oracle::synthesize_fault_tree(*system.model, system.system, options);
    benchmark::DoNotOptimize(tree.cut_sets.size());
  }
}
BENCHMARK(BM_OracleSynthesizeScaled)->Args({9, 1})->Args({6, 2})
    ->Unit(benchmark::kMicrosecond);

// ZBDD keeps going where enumeration is out of budget (width 4-5).
void BM_ZbddSynthesizeScaled(benchmark::State& state) {
  auto system = core::make_scaled_architecture(9, 1, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const auto tree = fta::synthesize_fault_tree_zbdd(*system.model, system.system);
    benchmark::DoNotOptimize(tree.cut_sets.size());
  }
}
BENCHMARK(BM_ZbddSynthesizeScaled)->Arg(1)->Arg(2)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMicrosecond);

void BM_ExactQuantifyB(benchmark::State& state) {
  auto system = core::make_system_b();
  const auto tree = fta::synthesize_fault_tree_zbdd(*system.model, system.system);
  for (auto _ : state) {
    const auto quant = fta::quantify(tree, 10000.0);
    benchmark::DoNotOptimize(quant.importance.size());
  }
}
BENCHMARK(BM_ExactQuantifyB)->Unit(benchmark::kMicrosecond);

void BM_LatentClassifyB(benchmark::State& state) {
  auto system = core::make_system_b();
  const auto tree = fta::synthesize_fault_tree_zbdd(*system.model, system.system);
  const auto fmea = core::analyze_component(*system.model, system.system);
  for (auto _ : state) {
    const auto lfm = fta::classify_latent(*system.model, tree, fmea);
    benchmark::DoNotOptimize(lfm.rows.size());
  }
}
BENCHMARK(BM_LatentClassifyB)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  try {
    print_summary();
    verify_identity();
    verify_speedup();
    verify_reach();
  } catch (const std::exception& err) {
    std::printf("FTA gate failed: %s\n", err.what());
    return 1;
  }
  return bench_obs::run_benchmarks(argc, argv, "ext_fta");
}
