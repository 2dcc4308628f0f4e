// Ablation: safety-mechanism deployment search engines (DECISIVE Step 4b —
// "search for the pareto front of viable solutions").
//
// Three comparisons:
//   - DP Pareto engine vs the seed-era exhaustive enumerator (retained as
//     pareto_front_exhaustive) on Systems A and B: identical, oracle-verified
//     fronts, and the speedup of dominance-pruned label merging;
//   - greedy vs optimal ASIL-B deployment cost (the greedy optimality gap;
//     optimal_reach_asil reads the cheapest target-meeting point off the
//     exact front);
//   - a make_scaled_architecture subject with hundreds of open rows, where
//     the exhaustive enumerator throws AnalysisError and the DP engine
//     completes (with a --jobs sweep over the parallel merge tree), and
//     optimal_reach_asil answers ASIL-B and ASIL-C.
//
// Gates, checked before any timing: on every table subject the optimal cost
// must equal the cheapest oracle-front point meeting ASIL-B and must not
// exceed greedy's, and on the scaled subject optimal_reach_asil must answer
// both targets; a failure exits non-zero.
#include <benchmark/benchmark.h>

#include "obs_bench.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/base/table.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/sm_search.hpp"
#include "decisive/core/synthetic.hpp"

using namespace decisive;

namespace {

struct Prepared {
  core::FmedaResult fmea;
  const char* name;
};

Prepared prepare(core::SyntheticSystem (*make)(), const char* name) {
  auto system = make();
  return {core::analyze_component(*system.model, system.system), name};
}

core::FmedaResult prepare_scaled(size_t composites, size_t leaves) {
  auto system = core::make_scaled_architecture(composites, leaves);
  return core::analyze_component(*system.model, system.system);
}

size_t open_rows(const core::FmedaResult& fmea) {
  size_t open = 0;
  for (const auto& row : fmea.rows) {
    if (row.safety_related && row.safety_mechanism.empty()) ++open;
  }
  return open;
}

double seconds_of(const std::function<void()>& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Set-identity of two fronts on the reported (cost, SPFM) values.
bool fronts_equal(const std::vector<core::Deployment>& a,
                  const std::vector<core::Deployment>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i].total_cost_hours - b[i].total_cost_hours) > 1e-6) return false;
    if (std::abs(a[i].spfm - b[i].spfm) > 1e-9) return false;
  }
  return true;
}

/// Six graded options per open (type, mode): the "rich catalogue" regime
/// where the seed enumerator's O(prod choices) blows up even on ~8 rows.
core::SafetyMechanismModel dense_catalogue(const core::FmedaResult& fmea) {
  core::SafetyMechanismModel catalogue;
  std::vector<std::string> seen;
  for (const auto& row : fmea.rows) {
    if (!row.safety_related || !row.safety_mechanism.empty()) continue;
    const std::string key = row.component_type + "\x1f" + row.failure_mode;
    bool duplicate = false;
    for (const auto& s : seen) duplicate = duplicate || s == key;
    if (duplicate) continue;
    seen.push_back(key);
    for (int k = 0; k < 6; ++k) {
      catalogue.add({row.component_type, row.failure_mode,
                     "Option" + std::to_string(k), 0.55 + 0.07 * k,
                     0.5 + 0.9 * k});
    }
  }
  return catalogue;
}

/// Cheapest point of a cost-sorted front whose reported SPFM meets `target`.
const core::Deployment* cheapest_meeting(const std::vector<core::Deployment>& front,
                                         double target) {
  for (const auto& point : front) {
    if (point.spfm >= target) return &point;
  }
  return nullptr;
}

/// Prints the comparison tables; returns the number of failed gates.
int print_comparison() {
  int failures = 0;
  const auto gate = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::printf("GATE FAILED: %s\n", what.c_str());
      ++failures;
    }
  };
  std::printf("== Ablation: deployment-search engines (DP vs seed enumerator) ==\n\n");
  const auto shared = core::synthetic_sm_catalogue();
  TextTable table({"System", "open SR rows", "front", "seed enum (ms)", "DP (ms)",
                   "speedup", "fronts equal", "greedy cost (h)", "optimal cost (h)"});
  const auto subject_a = prepare(&core::make_system_a, "A");
  const auto subject_b = prepare(&core::make_system_b, "B");
  const auto dense = dense_catalogue(subject_b.fmea);
  const struct {
    const Prepared* subject;
    const core::SafetyMechanismModel* catalogue;
    const char* name;
  } cases[] = {{&subject_a, &shared, "A"},
               {&subject_b, &shared, "B"},
               {&subject_b, &dense, "B (dense catalogue)"}};
  for (const auto& c : cases) {
    const auto& fmea = c.subject->fmea;
    const auto& catalogue = *c.catalogue;
    std::vector<core::Deployment> oracle_front, dp_front;
    const double oracle_seconds = seconds_of(
        [&] { oracle_front = core::pareto_front_exhaustive(fmea, catalogue); });
    const double dp_seconds =
        seconds_of([&] { dp_front = core::pareto_front(fmea, catalogue); });
    const auto greedy = core::greedy_reach_asil(fmea, catalogue, "ASIL-B");
    const auto optimal = core::optimal_reach_asil(fmea, catalogue, "ASIL-B");
    const core::Deployment* cheapest =
        cheapest_meeting(oracle_front, core::spfm_target("ASIL-B"));
    const std::string subject = std::string("System ") + c.name + " at ASIL-B: ";
    gate(optimal.has_value() == (cheapest != nullptr),
         subject + "optimal and the oracle front disagree on reachability");
    gate(!optimal || !cheapest ||
             std::abs(optimal->total_cost_hours - cheapest->total_cost_hours) <= 1e-6,
         subject + "optimal cost differs from the cheapest oracle-front point");
    gate(!optimal || !greedy || optimal->total_cost_hours <= greedy->total_cost_hours + 1e-6,
         subject + "optimal cost exceeds greedy's");
    table.add_row({c.name, std::to_string(open_rows(fmea)),
                   std::to_string(dp_front.size()), format_number(oracle_seconds * 1e3, 2),
                   format_number(dp_seconds * 1e3, 2),
                   format_number(oracle_seconds / dp_seconds, 1) + "x",
                   fronts_equal(oracle_front, dp_front) ? "yes" : "NO",
                   greedy ? format_number(greedy->total_cost_hours, 1) : "-",
                   optimal ? format_number(optimal->total_cost_hours, 1) : "-"});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("== Scaling: make_scaled_architecture subject ==\n\n");
  const auto scaled = prepare_scaled(60, 5);
  const auto scaled_catalogue = core::scaled_sm_catalogue();
  std::printf("open SR rows: %zu\n", open_rows(scaled));
  try {
    core::pareto_front_exhaustive(scaled, scaled_catalogue);
    std::printf("seed enumerator: completed (unexpected at this scale)\n");
  } catch (const AnalysisError& error) {
    std::printf("seed enumerator: AnalysisError — %s\n", error.what());
  }
  for (const double epsilon : {0.0, 0.001, 0.01}) {
    std::vector<core::Deployment> front;
    core::ParetoOptions options;
    options.epsilon = epsilon;
    options.jobs = 0;  // all cores
    const double dp_seconds =
        seconds_of([&] { front = core::pareto_front(scaled, scaled_catalogue, options); });
    std::printf("DP engine (epsilon %s): front %zu in %s ms\n",
                format_number(epsilon, 3).c_str(), front.size(),
                format_number(dp_seconds * 1e3, 1).c_str());
  }
  for (const char* target : {"ASIL-B", "ASIL-C"}) {
    std::optional<core::Deployment> optimal, greedy;
    const double optimal_seconds =
        seconds_of([&] { optimal = core::optimal_reach_asil(scaled, scaled_catalogue, target); });
    const double greedy_seconds =
        seconds_of([&] { greedy = core::greedy_reach_asil(scaled, scaled_catalogue, target); });
    std::printf("optimal_reach_asil %s: %s h in %s ms (greedy %s h in %s ms)\n", target,
                optimal ? format_number(optimal->total_cost_hours, 2).c_str() : "-",
                format_number(optimal_seconds * 1e3, 1).c_str(),
                greedy ? format_number(greedy->total_cost_hours, 2).c_str() : "-",
                format_number(greedy_seconds * 1e3, 1).c_str());
    gate(optimal.has_value(), std::string("scaled subject: optimal_reach_asil ") + target +
                                  " returned no deployment");
    gate(!optimal || !greedy || optimal->total_cost_hours <= greedy->total_cost_hours + 1e-6,
         std::string("scaled subject at ") + target + ": optimal cost exceeds greedy's");
  }
  std::printf(
      "\nreading: the DP engine reproduces the seed enumerator's front exactly\n"
      "(oracle-verified) orders of magnitude faster, and completes on scaled\n"
      "subjects where enumeration throws; the cheapest front point meeting a\n"
      "target closes the greedy optimality gap.\n\n");
  return failures;
}

void BM_SeedEnumeratorSystemB(benchmark::State& state) {
  const auto subject = prepare(&core::make_system_b, "B");
  const auto catalogue = core::synthetic_sm_catalogue();
  for (auto _ : state) {
    const auto front = core::pareto_front_exhaustive(subject.fmea, catalogue);
    benchmark::DoNotOptimize(front.size());
  }
}
BENCHMARK(BM_SeedEnumeratorSystemB)->Unit(benchmark::kMillisecond);

void BM_DpFrontSystemB(benchmark::State& state) {
  const auto subject = prepare(&core::make_system_b, "B");
  const auto catalogue = core::synthetic_sm_catalogue();
  for (auto _ : state) {
    const auto front = core::pareto_front(subject.fmea, catalogue);
    benchmark::DoNotOptimize(front.size());
  }
}
BENCHMARK(BM_DpFrontSystemB)->Unit(benchmark::kMicrosecond);

void BM_DpFrontScaled(benchmark::State& state) {
  const auto fmea = prepare_scaled(60, 5);
  const auto catalogue = core::scaled_sm_catalogue();
  core::ParetoOptions options;
  options.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto front = core::pareto_front(fmea, catalogue, options);
    benchmark::DoNotOptimize(front.size());
  }
}
BENCHMARK(BM_DpFrontScaled)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_GreedySystemB(benchmark::State& state) {
  const auto subject = prepare(&core::make_system_b, "B");
  const auto catalogue = core::synthetic_sm_catalogue();
  for (auto _ : state) {
    const auto deployment = core::greedy_reach_asil(subject.fmea, catalogue, "ASIL-B");
    benchmark::DoNotOptimize(deployment.has_value());
  }
}
BENCHMARK(BM_GreedySystemB)->Unit(benchmark::kMicrosecond);

void BM_OptimalSystemB(benchmark::State& state) {
  const auto subject = prepare(&core::make_system_b, "B");
  const auto catalogue = core::synthetic_sm_catalogue();
  for (auto _ : state) {
    const auto deployment = core::optimal_reach_asil(subject.fmea, catalogue, "ASIL-B");
    benchmark::DoNotOptimize(deployment.has_value());
  }
}
BENCHMARK(BM_OptimalSystemB)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  if (const int failures = print_comparison(); failures != 0) {
    std::printf("%d ablation gate(s) failed\n", failures);
    return 1;
  }
  return bench_obs::run_benchmarks(argc, argv, "ablation_search");
}
