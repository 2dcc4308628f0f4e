// Incremental analysis engine: the DECISIVE edit→re-analyze loop, measured.
//
// The workload is the iteration the paper's Section III process implies: an
// engineer holds one model open and alternates small edits with full
// re-analyses. The harness verifies up front that (a) a scripted 100-edit
// loop over one resident session stays byte-identical to a cold run at
// every step, (b) a single-component edit on the Table-VI-scale subject
// replays >90% of the units from the fingerprint cache, (c) a one-leaf edit
// at /96 re-analyses at least 5x faster than a cold run (medians of
// alternating in-process repetitions, so the gate is a same-machine ratio),
// and (d) a no-op re-analysis runs no full fingerprint pass and emits no
// rows (counters, not timings). Then it times the cold run, the incremental
// re-analysis after one edit, the no-op re-analysis (edit-log
// short-circuit), and the full fingerprint pass itself.
#include <benchmark/benchmark.h>

#include "obs_bench.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/session/fingerprint.hpp"
#include "decisive/session/incremental.hpp"

using namespace decisive;
using ssam::ObjectId;

namespace {

constexpr size_t kComposites = 40;
constexpr size_t kLeaves = 16;

std::string csv_of(const core::FmedaResult& result) { return write_csv(result.to_csv()); }

/// The acceptance gates: run them before timing anything so the numbers
/// below are only ever printed for a correct engine.
void verify_edit_loop() {
  auto sys = core::make_scaled_architecture(kComposites, kLeaves);
  session::AnalysisSession session(*sys.model, sys.system);
  session.reanalyze();

  size_t total_hits = 0;
  size_t total_units = 0;
  for (int step = 0; step < 100; ++step) {
    const std::string name =
        "Unit" + std::to_string(step % kComposites) + ".Leaf" + std::to_string(step % kLeaves);
    const ObjectId leaf = sys.model->find_by_name(ssam::cls::Component, name);
    sys.model->obj(leaf).set_real("fit", 10.0 + step);
    session.note_edit(leaf);
    const std::string incremental = csv_of(session.reanalyze());
    if (incremental != csv_of(session.cold_analyze())) {
      throw std::runtime_error("incremental FMEDA diverged from cold run at step " +
                               std::to_string(step));
    }
    total_hits += session.last_stats().cache_hits;
    total_units += session.last_stats().units;
  }
  const double hit_rate = static_cast<double>(total_hits) / static_cast<double>(total_units);
  std::printf("verified: 100-edit loop byte-identical to cold runs, hit rate %.1f%%\n",
              hit_rate * 100.0);
  if (hit_rate <= 0.9) throw std::runtime_error("cache hit rate regressed below 90%");
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2.0;
}

template <typename F>
double seconds_of(F&& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The O(edit) gates at /96: a one-leaf edit against a cold run, as a ratio
/// of medians over alternating repetitions in this process, and a no-op
/// re-analysis read from counters.
void verify_turn_costs() {
  constexpr int kRepetitions = 15;
  constexpr double kMinSpeedup = 5.0;
  auto sys = core::make_scaled_architecture(kComposites, 96);
  session::AnalysisSession session(*sys.model, sys.system);
  session.reanalyze();
  const ObjectId leaf = sys.model->find_by_name(ssam::cls::Component, "Unit20.Leaf3");

  std::vector<double> cold;
  std::vector<double> edit;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    cold.push_back(seconds_of([&] { benchmark::DoNotOptimize(session.cold_analyze()); }));
    sys.model->obj(leaf).set_real("fit", 200.0 + rep);
    session.note_edit(leaf);
    edit.push_back(seconds_of([&] { benchmark::DoNotOptimize(session.reanalyze()); }));
  }
  const double speedup = median(cold) / median(edit);
  std::printf("verified: one-leaf edit at /96 %.1fx faster than cold (median %.2f ms vs %.2f ms)\n",
              speedup, median(edit) * 1e3, median(cold) * 1e3);
  if (speedup < kMinSpeedup) {
    throw std::runtime_error("one-leaf edit at /96 is only " + std::to_string(speedup) +
                             "x faster than a cold run (gate: 5x)");
  }

  auto& registry = obs::Registry::global();
  auto& passes = registry.counter("decisive_session_full_fingerprint_passes_total");
  auto& emitted = registry.counter("decisive_graph_fmea_emitted_rows_total");
  const auto passes_before = passes.value();
  const auto emitted_before = emitted.value();
  for (int rep = 0; rep < kRepetitions; ++rep) session.reanalyze();
  if (passes.value() != passes_before || emitted.value() != emitted_before) {
    throw std::runtime_error("a no-op re-analysis ran a full fingerprint pass or emitted rows");
  }
  std::printf("verified: no-op re-analysis runs no full fingerprint pass and emits no rows\n");
}

void BM_ColdAnalysis(benchmark::State& state) {
  auto sys = core::make_scaled_architecture(kComposites, static_cast<size_t>(state.range(0)));
  session::AnalysisSession session(*sys.model, sys.system);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.cold_analyze());
  }
}

void BM_IncrementalAfterOneEdit(benchmark::State& state) {
  auto sys = core::make_scaled_architecture(kComposites, static_cast<size_t>(state.range(0)));
  session::AnalysisSession session(*sys.model, sys.system);
  session.reanalyze();
  double fit = 100.0;
  size_t hits = 0;
  size_t units = 0;
  const ObjectId leaf = sys.model->find_by_name(ssam::cls::Component, "Unit20.Leaf3");
  for (auto _ : state) {
    state.PauseTiming();
    sys.model->obj(leaf).set_real("fit", fit);
    fit += 1.0;
    session.note_edit(leaf);
    state.ResumeTiming();
    benchmark::DoNotOptimize(session.reanalyze());
    hits += session.last_stats().cache_hits;
    units += session.last_stats().units;
  }
  state.counters["hit_rate"] =
      units == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(units);
}

void BM_ReanalyzeUnchanged(benchmark::State& state) {
  auto sys = core::make_scaled_architecture(kComposites, static_cast<size_t>(state.range(0)));
  session::AnalysisSession session(*sys.model, sys.system);
  session.reanalyze();
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.reanalyze());
  }
}

void BM_FingerprintPass(benchmark::State& state) {
  auto sys = core::make_scaled_architecture(kComposites, static_cast<size_t>(state.range(0)));
  const core::GraphFmeaOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session::fingerprint_model(*sys.model, sys.system, options));
  }
}

// The argument is leaves-per-composite: 16 matches the Table-VI subject;
// 96 makes each unit's single-point analysis heavy enough to dominate the
// shared serial passes, which is where skipping 90% of the units pays off.
BENCHMARK(BM_ColdAnalysis)->Arg(16)->Arg(96)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalAfterOneEdit)->Arg(16)->Arg(96)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReanalyzeUnchanged)->Arg(16)->Arg(96)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FingerprintPass)->Arg(16)->Arg(96)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  verify_edit_loop();
  verify_turn_costs();
  return bench_obs::run_benchmarks(argc, argv, "incremental");
}
