// Campaign-engine throughput: fault-injection FME(D)A on synthetic
// multi-fault circuits, serial vs parallel.
//
// Faults are independent re-simulations of circuit copies, so the campaign
// is embarrassingly parallel; the CampaignRunner executes tasks on a
// fixed-size thread pool with deterministic result ordering. This harness
// measures campaign throughput as a function of circuit size and job count,
// and verifies up front that the parallel FMEDA table is byte-identical to
// the serial one.
#include <benchmark/benchmark.h>

#include "obs_bench.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/core/campaign.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/sim/builder.hpp"

using namespace decisive;

namespace {

/// A supply rail feeding `stages` RC/diode branches: each stage is a series
/// resistor into a diode-clamped tap with a voltage sensor. Every resistor
/// and diode is an FMEA candidate, so the campaign has 5*stages fault tasks
/// (Open/Short/Drift on resistors, Open/Short on diodes) over a dense MNA
/// system whose size grows with the circuit.
sim::BuiltCircuit make_rail(int stages) {
  sim::BuiltCircuit built;
  sim::Circuit& c = built.circuit;
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

core::ReliabilityModel make_reliability() {
  core::ReliabilityModel reliability;
  reliability.add("Resistor", 5.0,
                  {{"Open", 0.5}, {"Short", 0.3}, {"Drift", 0.2}});
  reliability.add("Diode", 10.0, {{"Open", 0.3}, {"Short", 0.7}});
  return reliability;
}

/// `sparse = false` is the dense-only `--no-sparse` campaign: no fast path,
/// one dense solve ladder per fault.
core::CircuitFmeaOptions options_with_jobs(int jobs, bool sparse = true) {
  core::CircuitFmeaOptions options;
  options.jobs = jobs;
  options.sparse = sparse;
  options.solver.sparse = sparse;
  return options;
}

void expect(bool condition, const char* what) {
  if (!condition) {
    std::printf("MISMATCH: %s\n", what);
    throw std::runtime_error(what);
  }
}

/// Determinism gate: the parallel campaign must emit a byte-identical FMEDA
/// table (CSV serialisation) to the serial one before any timing matters.
void verify_determinism() {
  const auto built = make_rail(12);
  const auto reliability = make_reliability();
  const auto serial =
      core::analyze_circuit(built, reliability, nullptr, options_with_jobs(1));
  const auto parallel =
      core::analyze_circuit(built, reliability, nullptr, options_with_jobs(8));
  expect(write_csv(serial.to_csv()) == write_csv(parallel.to_csv()),
         "parallel FMEDA table differs from serial");
  expect(serial.warnings == parallel.warnings,
         "parallel warnings differ from serial");
  expect(serial.rows.size() == 12u * 5u, "unexpected task count");
  std::printf("determinism verified: --jobs 1 and --jobs 8 byte-identical "
              "(%zu rows)\n\n",
              serial.rows.size());
}

void run_campaign(benchmark::State& state, int stages, int jobs, bool sparse = true) {
  const auto built = make_rail(stages);
  const auto reliability = make_reliability();
  const auto options = options_with_jobs(jobs, sparse);
  size_t faults = 0;
  for (auto _ : state) {
    const auto fmea = core::analyze_circuit(built, reliability, nullptr, options);
    benchmark::DoNotOptimize(fmea.spfm());
    faults += fmea.rows.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(faults));
}

/// The default campaign: one shared stamp plan and symbolic analysis, then
/// numeric refactorisation per fault. Swept from small rails, where the
/// dense per-fault factor is cheap, into the sizes where it becomes the
/// campaign cost.
void BM_CampaignSerial(benchmark::State& state) {
  run_campaign(state, static_cast<int>(state.range(0)), 1);
}
BENCHMARK(BM_CampaignSerial)
    ->ArgName("stages")
    ->Arg(8)
    ->Arg(24)
    ->Arg(48)
    ->Arg(96)
    ->Arg(192)
    ->Unit(benchmark::kMillisecond);

/// The classic one-solve-per-fault dense path (--no-sparse), same subjects
/// as BM_CampaignSerial: the ratio of the two is the factor-once speedup.
void BM_CampaignNaiveSerial(benchmark::State& state) {
  run_campaign(state, static_cast<int>(state.range(0)), 1, /*sparse=*/false);
}
BENCHMARK(BM_CampaignNaiveSerial)
    ->ArgName("stages")
    ->Arg(8)
    ->Arg(24)
    ->Arg(48)
    ->Unit(benchmark::kMillisecond);

void BM_CampaignParallel(benchmark::State& state) {
  run_campaign(state, static_cast<int>(state.range(0)), 0);  // 0 = all cores
}
BENCHMARK(BM_CampaignParallel)
    ->ArgName("stages")
    ->Arg(8)
    ->Arg(24)
    ->Arg(48)
    ->Unit(benchmark::kMillisecond);

void BM_CampaignJobsSweep(benchmark::State& state) {
  run_campaign(state, 24, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_CampaignJobsSweep)
    ->ArgName("jobs")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Sharded execution: run every shard of an N-way partition (journaled, as a
/// distributed deployment would) and fold the per-shard journals back into
/// the campaign FMEDA. Measures the full split→run-all-shards→merge cycle,
/// so the shard-count sweep exposes the journal + merge overhead on top of
/// the plain campaign (shards=1 is the journaled baseline).
void run_sharded_campaign(benchmark::State& state, int stages, int shard_count) {
  const auto built = make_rail(stages);
  const auto reliability = make_reliability();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("decisive_bench_shards_" + std::to_string(shard_count));
  std::filesystem::create_directories(dir);
  size_t faults = 0;
  for (auto _ : state) {
    std::vector<std::string> journals;
    for (int shard = 0; shard < shard_count; ++shard) {
      auto options = options_with_jobs(1);
      options.execution.shard_index = shard;
      options.execution.shard_count = shard_count;
      options.execution.journal_path =
          (dir / ("shard" + std::to_string(shard) + ".journal")).string();
      journals.push_back(options.execution.journal_path);
      std::filesystem::remove(options.execution.journal_path);
      const auto part = core::analyze_circuit(built, reliability, nullptr, options);
      benchmark::DoNotOptimize(part.rows.size());
    }
    const auto merged = core::merge_campaign_journals(journals);
    benchmark::DoNotOptimize(merged.spfm());
    faults += merged.rows.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(faults));
  std::filesystem::remove_all(dir);
}

void BM_CampaignShardSweep(benchmark::State& state) {
  run_sharded_campaign(state, 24, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_CampaignShardSweep)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Shard-merge gate, mirroring verify_determinism(): the merged N-shard
/// FMEDA must be byte-identical to the unsharded campaign for every swept
/// shard count before the shard timings mean anything.
void verify_shard_merge() {
  const auto built = make_rail(12);
  const auto reliability = make_reliability();
  const auto whole =
      write_csv(core::analyze_circuit(built, reliability, nullptr, options_with_jobs(1))
                    .to_csv());
  const auto dir = std::filesystem::temp_directory_path() / "decisive_bench_shard_gate";
  for (const int shard_count : {1, 2, 4, 8}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> journals;
    for (int shard = 0; shard < shard_count; ++shard) {
      auto options = options_with_jobs(1);
      options.execution.shard_index = shard;
      options.execution.shard_count = shard_count;
      options.execution.journal_path =
          (dir / ("shard" + std::to_string(shard) + ".journal")).string();
      journals.push_back(options.execution.journal_path);
      (void)core::analyze_circuit(built, reliability, nullptr, options);
    }
    const auto merged = write_csv(core::merge_campaign_journals(journals).to_csv());
    expect(merged == whole, "merged shard FMEDA differs from unsharded");
  }
  std::filesystem::remove_all(dir);
  std::printf("shard merge verified: 1/2/4/8-way shard journals fold to the "
              "unsharded FMEDA byte-identically\n\n");
}

/// Identity gate: at every swept size below the throughput subject, the
/// default campaign must emit exactly the dense-only campaign's bytes — CSV
/// and warnings — serial and parallel, before any timing means anything.
/// The 192-stage subject is covered inside the throughput gate, which
/// compares the very runs it times.
void verify_sparse_identity() {
  const auto reliability = make_reliability();
  for (const int stages : {12, 48, 96}) {
    const auto built = make_rail(stages);
    const auto dense =
        core::analyze_circuit(built, reliability, nullptr, options_with_jobs(1, false));
    const auto dense_csv = write_csv(dense.to_csv());
    for (const int jobs : {1, 8}) {
      const auto fast = core::analyze_circuit(built, reliability, nullptr, options_with_jobs(jobs));
      expect(dense_csv == write_csv(fast.to_csv()),
             "default campaign FMEDA table differs from dense-only");
      expect(dense.warnings == fast.warnings,
             "default campaign warnings differ from dense-only");
    }
  }
  std::printf("identity verified: default campaign byte-identical to dense-only "
              "at 12/48/96 stages (jobs 1 and 8)\n\n");
}

/// Throughput gate (acceptance criterion): on the shared-pattern 192-stage
/// rail the single-thread default campaign must run >= 10x faster than the
/// dense-only naive one. The two timed runs double as the 192-stage
/// byte-identity check.
void verify_throughput_gate() {
  const auto built = make_rail(192);
  const auto reliability = make_reliability();
  const auto naive_options = options_with_jobs(1, false);
  const auto fast_options = options_with_jobs(1);
  // One untimed pass to warm allocators and page in the code.
  (void)core::analyze_circuit(built, reliability, nullptr, fast_options);

  std::string csv[2];
  std::vector<std::string> warnings[2];
  const auto time_one = [&](const core::CircuitFmeaOptions& options, int slot) {
    const auto start = std::chrono::steady_clock::now();
    const auto fmea = core::analyze_circuit(built, reliability, nullptr, options);
    const auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start);
    benchmark::DoNotOptimize(fmea.spfm());
    csv[slot] = write_csv(fmea.to_csv());
    warnings[slot] = fmea.warnings;
    return elapsed.count();
  };
  const double naive_s = time_one(naive_options, 0);
  const double fast_s = time_one(fast_options, 1);
  expect(csv[1] == csv[0] && warnings[1] == warnings[0],
         "192-stage default campaign FMEDA differs from dense-only");
  const double speedup = naive_s / fast_s;
  std::printf("throughput gate: naive %.3fs, default %.3fs (%.1fx, floor 10x) "
              "single-thread\n\n",
              naive_s, fast_s, speedup);
  std::fflush(stdout);
  expect(speedup >= 10.0, "campaign speedup below the 10x floor");
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("hardware concurrency: %u\n", std::thread::hardware_concurrency());
  verify_determinism();
  verify_shard_merge();
  verify_sparse_identity();
  verify_throughput_gate();
  return bench_obs::run_benchmarks(argc, argv, "campaign");
}
