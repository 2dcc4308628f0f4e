// The campaign's factor-once fast path (sim/campaign_solver.hpp) and its
// integration with the campaign engine. The load-bearing property is
// byte-identity: a campaign on the fast path must emit exactly the bytes the
// dense-only one-solve-per-fault campaign emits — same CSV, same warnings —
// for any job count, shard spec, or journal state, because every gate in
// the fast path falls back to the naive dense ladder the moment a result
// could differ.
//
// The BatchCampaign / BatchContext suite names date from the batched
// low-rank tier these tests were first written against; they are kept so
// the test IDs stay stable now that the same properties are checked on the
// single fast path.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/core/campaign.hpp"
#include "decisive/core/campaign_journal.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/drivers/datasource.hpp"
#include "decisive/drivers/mdl.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/sim/campaign_solver.hpp"
#include "decisive/sim/fault.hpp"
#include "decisive/sim/solver.hpp"
#include "rail_subjects.hpp"

using namespace decisive;
using rail_subjects::bench_rail;
using rail_subjects::bench_rail_reliability;

namespace {

const std::string kAssets = DECISIVE_ASSETS_DIR;

/// Torture specimen from robustness_test: the baseline solves inside the
/// iteration budget, the Drift fault only converges via the recovery ladder
/// — so the fast path must hand it back to the naive solver (NotConverged
/// fallback) and the row must still say RecoveredViaLadder.
sim::BuiltCircuit drifting_source_rig() {
  sim::BuiltCircuit built;
  sim::Circuit& c = built.circuit;
  const int p = c.node("p");
  const int k = c.node("k");
  c.add_vsource("V1", p, 0, 1.2);
  c.add_resistor("R1", p, k, 1000.0);
  c.add_diode("D1", 0, k);
  c.add_voltage_sensor("VS1", k, 0);
  built.observables.push_back("VS1");
  built.components.push_back({"V1", "Source", "V1"});
  return built;
}

/// An MCU monitoring a divided-down supply: Drift faults on the supply move
/// the MCU across its brown-out threshold, exercising RHS-only faults, the
/// MCU knife-edge guard, and the stream-changing VSource Open/Short faults.
sim::BuiltCircuit mcu_rig() {
  sim::BuiltCircuit built;
  sim::Circuit& c = built.circuit;
  const int vin = c.node("vin");
  const int vdd = c.node("vdd");
  c.add_vsource("V1", vin, 0, 5.0);
  c.add_resistor("R1", vin, vdd, 1000.0);
  c.add_resistor("R2", vdd, 0, 2200.0);
  c.add_mcu("MC1", vdd, 0, 10000.0);
  c.add_voltage_sensor("VS1", vdd, 0);
  built.observables.push_back("MC1");
  built.observables.push_back("VS1");
  built.components.push_back({"V1", "Source", "V1"});
  built.components.push_back({"R1", "Resistor", "R1"});
  built.components.push_back({"MC1", "Mcu", "MC1"});
  return built;
}

core::ReliabilityModel mcu_reliability() {
  core::ReliabilityModel reliability;
  reliability.add("Source", 5.0, {{"Open", 0.3}, {"Short", 0.2}, {"Drift", 0.5}});
  reliability.add("Resistor", 5.0, {{"Open", 0.5}, {"Short", 0.3}, {"Drift", 0.2}});
  reliability.add("Mcu", 20.0, {{"RamFailure", 0.6}, {"Drift", 0.4}});
  return reliability;
}

struct ReferenceSubject {
  sim::BuiltCircuit built;
  core::ReliabilityModel reliability;
};

ReferenceSubject power_supply() {
  ReferenceSubject subject{
      sim::build_circuit(drivers::parse_mdl_file(kAssets + "/power_supply.mdl")), {}};
  const auto workbook = drivers::DriverRegistry::global().open(kAssets + "/reliability_workbook");
  subject.reliability = core::ReliabilityModel::from_source(*workbook, "Reliability");
  return subject;
}

struct CampaignOutput {
  std::string csv;
  std::vector<std::string> warnings;
};

/// `fast = false` is the dense-only oracle (`--no-sparse`): no fast path,
/// every fault solved on the dense kernel.
CampaignOutput run_campaign(const sim::BuiltCircuit& built,
                            const core::ReliabilityModel& reliability, bool fast, int jobs,
                            core::CircuitFmeaOptions options = {}) {
  options.solver.sparse = fast;
  options.jobs = jobs;
  const auto result = core::analyze_circuit(built, reliability, nullptr, options);
  return CampaignOutput{write_csv(result.to_csv()), result.warnings};
}

/// The property behind every acceptance gate: for this subject, fast-path
/// and dense-only campaigns produce identical bytes at every job count.
void expect_fast_path_matches_dense(const sim::BuiltCircuit& built,
                                    const core::ReliabilityModel& reliability,
                                    core::CircuitFmeaOptions options = {}) {
  const CampaignOutput dense = run_campaign(built, reliability, false, 1, options);
  for (const int jobs : {1, 4, 8}) {
    const CampaignOutput fast = run_campaign(built, reliability, true, jobs, options);
    EXPECT_EQ(fast.csv, dense.csv) << "fast-path FMEDA diverged at jobs=" << jobs;
    EXPECT_EQ(fast.warnings, dense.warnings) << "warnings diverged at jobs=" << jobs;
  }
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Every fault task of a campaign subject as (fault, faulted circuit), in
/// task order; modes that do not apply to their element are skipped, as the
/// campaign turns them into NotApplicable rows before any solve.
struct FaultCase {
  sim::Fault fault;
  sim::Circuit faulted;
};

std::vector<FaultCase> fault_cases(const sim::BuiltCircuit& built,
                                   const core::ReliabilityModel& reliability,
                                   const sim::SolveOptions& options) {
  std::vector<FaultCase> cases;
  for (const auto& component : built.components) {
    const core::ComponentReliability* entry = reliability.find(component.block_type);
    if (entry == nullptr) continue;
    for (const auto& mode : entry->modes) {
      try {
        sim::Fault fault;
        fault.element = component.element;
        fault.kind = sim::fault_kind_from_name(mode.name);
        cases.push_back({fault, sim::inject_fault(built.circuit, fault, options.open_resistance,
                                                  options.closed_resistance)});
      } catch (const AnalysisError&) {
        // Not applicable to this element kind.
      }
    }
  }
  return cases;
}

}  // namespace

// ------------------------------------------------- campaign byte-identity --

TEST(BatchCampaign, RailSubjectByteIdenticalAcrossJobCounts) {
  expect_fast_path_matches_dense(bench_rail(8), bench_rail_reliability());
}

TEST(BatchCampaign, LadderTortureSubjectByteIdentical) {
  // The Drift fault needs the recovery ladder; the fast path must fall
  // back, keeping the RecoveredViaLadder row (whose detail embeds iteration
  // counts) byte-identical.
  core::ReliabilityModel reliability;
  reliability.add("Source", 5.0, {{"Drift", 1.0}});
  core::CircuitFmeaOptions options;
  options.solver.max_newton_iterations = 40;
  expect_fast_path_matches_dense(drifting_source_rig(), reliability, options);
}

TEST(BatchCampaign, McuKnifeEdgeSubjectByteIdentical) {
  expect_fast_path_matches_dense(mcu_rig(), mcu_reliability());
}

TEST(BatchCampaign, ReferenceSubjectByteIdentical) {
  const ReferenceSubject subject = power_supply();
  core::CircuitFmeaOptions options;
  options.safety_goal_observables = {"CS1", "MC1"};
  expect_fast_path_matches_dense(subject.built, subject.reliability, options);
}

// ------------------------------------------- journal + shard determinism --

TEST(BatchCampaign, JournalsInterchangeBetweenBatchedAndNaiveRuns) {
  // The fast-path flag is excluded from the campaign fingerprint, so a
  // journal written by a dense-only run must resume under a fast-path run
  // and still reproduce the uninterrupted bytes.
  const auto built = bench_rail(6);
  const auto reliability = bench_rail_reliability();
  const auto dir = std::filesystem::temp_directory_path() / "decisive_fast_path_journal_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const CampaignOutput uninterrupted = run_campaign(built, reliability, true, 1);

  core::CircuitFmeaOptions options;
  options.execution.journal_path = (dir / "campaign.journal").string();
  // Pass 1: dense-only run writes the full journal.
  const CampaignOutput dense = run_campaign(built, reliability, false, 1, options);
  // Pass 2: fast-path run replays it (everything checkpointed, nothing re-run).
  const CampaignOutput replayed = run_campaign(built, reliability, true, 1, options);
  EXPECT_EQ(dense.csv, uninterrupted.csv);
  EXPECT_EQ(replayed.csv, uninterrupted.csv);
  EXPECT_EQ(replayed.warnings, uninterrupted.warnings);
  std::filesystem::remove_all(dir);
}

TEST(BatchCampaign, ShardedBatchedJournalsMergeToNaiveBytes) {
  const auto built = bench_rail(6);
  const auto reliability = bench_rail_reliability();
  const CampaignOutput whole = run_campaign(built, reliability, false, 1);
  const auto dir = std::filesystem::temp_directory_path() / "decisive_fast_path_shard_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::string> journals;
  for (int shard = 0; shard < 4; ++shard) {
    core::CircuitFmeaOptions options;
    options.execution.shard_index = shard;
    options.execution.shard_count = 4;
    options.execution.journal_path = (dir / ("s" + std::to_string(shard) + ".journal")).string();
    journals.push_back(options.execution.journal_path);
    (void)core::analyze_circuit(built, reliability, nullptr, options);
  }
  const auto merged = core::merge_campaign_journals(journals);
  EXPECT_EQ(write_csv(merged.to_csv()), whole.csv);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------ context-level behaviour --

TEST(BatchContext, NominalPointMatchesClassicSolve) {
  const auto built = bench_rail(4);
  const sim::CampaignSparseContext context(built.circuit, sim::SolveOptions{});
  ASSERT_TRUE(context.usable());
  const auto classic = sim::dc_operating_point(built.circuit);
  for (const auto& [name, value] : classic.readings) {
    EXPECT_NEAR(context.nominal_point().reading(name), value, 1e-9) << name;
  }
}

TEST(BatchContext, SolvedFaultAgreesWithFreshSolve) {
  // A 4-stage rail sits far below the fill floor's 48 unknowns: the
  // campaign context still runs, because its symbolic analysis is paid once
  // per campaign.
  const auto built = bench_rail(4);
  const sim::SolveOptions options;
  const sim::CampaignSparseContext context(built.circuit, options);
  ASSERT_TRUE(context.usable());
  sim::CampaignSparseContext::Workspace ws;
  for (const sim::Fault& fault : {sim::Fault{"R2", sim::FaultKind::Open},
                                  sim::Fault{"R2", sim::FaultKind::Short},
                                  sim::Fault{"RL1", sim::FaultKind::Drift},
                                  sim::Fault{"D3", sim::FaultKind::Short},
                                  sim::Fault{"V1", sim::FaultKind::Drift},
                                  sim::Fault{"V1", sim::FaultKind::Short}}) {
    const sim::Circuit faulted = sim::inject_fault(built.circuit, fault);
    sim::SolveDiagnostics diagnostics;
    sim::FastPathOutcome outcome = sim::FastPathOutcome::Disabled;
    const auto solved = context.try_solve(faulted, fault, ws, diagnostics, outcome);
    ASSERT_TRUE(solved.has_value())
        << fault.element << "/" << to_string(fault.kind) << ": " << to_string(outcome);
    EXPECT_EQ(outcome, sim::FastPathOutcome::Solved);
    EXPECT_TRUE(diagnostics.converged);
    const auto fresh = sim::dc_operating_point(faulted, options);
    for (const auto& [name, value] : fresh.readings) {
      EXPECT_NEAR(solved->reading(name), value, 1e-6)
          << fault.element << "/" << to_string(fault.kind) << " reading " << name;
    }
  }
}

TEST(BatchContext, StructuralFaultReportsStructuralFallback) {
  const auto built = bench_rail(4);
  const sim::CampaignSparseContext context(built.circuit, sim::SolveOptions{});
  ASSERT_TRUE(context.usable());
  sim::CampaignSparseContext::Workspace ws;
  sim::SolveDiagnostics diagnostics;
  sim::FastPathOutcome outcome = sim::FastPathOutcome::Solved;

  // A value-only fault keeps the stamp stream: solved on the nominal plan,
  // no pattern derived.
  const sim::Fault drift{"R1", sim::FaultKind::Drift};
  const sim::Circuit drifted = sim::inject_fault(built.circuit, drift);
  EXPECT_TRUE(context.keeps_stamp_stream(drifted, drift));
  std::uint64_t builds = counter_value("decisive_sparse_plan_builds_total");
  EXPECT_TRUE(context.try_solve(drifted, drift, ws, diagnostics, outcome).has_value());
  EXPECT_EQ(counter_value("decisive_sparse_plan_builds_total"), builds);

  // V1 shorted into a resistor loses its branch unknown: the stream
  // changes, so the fault derives its own plan (exactly one) and solves via
  // partial refactorisation of the shared symbolic prefix.
  const sim::Fault shorted{"V1", sim::FaultKind::Short};
  const sim::Circuit short_faulted = sim::inject_fault(built.circuit, shorted);
  EXPECT_FALSE(context.keeps_stamp_stream(short_faulted, shorted));
  builds = counter_value("decisive_sparse_plan_builds_total");
  EXPECT_TRUE(context.try_solve(short_faulted, shorted, ws, diagnostics, outcome).has_value())
      << to_string(outcome);
  EXPECT_EQ(counter_value("decisive_sparse_plan_builds_total"), builds + 1);

  // A "faulted" circuit that grew a node is outside the context's contract.
  sim::Circuit grown = drifted;
  grown.add_resistor("RX", grown.node("extra"), 0, 1000.0);
  EXPECT_FALSE(context.keeps_stamp_stream(grown, drift));
  const auto refused = context.try_solve(grown, drift, ws, diagnostics, outcome);
  EXPECT_FALSE(refused.has_value());
  EXPECT_EQ(outcome, sim::FastPathOutcome::Structural);
}

TEST(BatchContext, UnsolvableNominalDisablesTheContext) {
  // Contradictory sources: the nominal system is singular, so the context
  // must construct unusable and refuse every solve instead of throwing.
  sim::Circuit c;
  const int a = c.node("a");
  c.add_vsource("V1", a, 0, 12.0);
  c.add_vsource("V2", a, 0, 5.0);
  c.add_resistor("R1", a, 0, 100.0);
  const sim::CampaignSparseContext context(c, sim::SolveOptions{});
  EXPECT_FALSE(context.usable());
  const sim::Fault fault{"R1", sim::FaultKind::Drift};
  sim::CampaignSparseContext::Workspace ws;
  sim::SolveDiagnostics diagnostics;
  sim::FastPathOutcome outcome = sim::FastPathOutcome::Solved;
  EXPECT_FALSE(context.try_solve(sim::inject_fault(c, fault), fault, ws, diagnostics, outcome)
                   .has_value());
  EXPECT_EQ(outcome, sim::FastPathOutcome::Disabled);
}

// ------------------------------------------ the "same stream" decision --

TEST(StampStream, DecisionFollowsTheStampClassTable) {
  EXPECT_EQ(sim::dc_stamp_class(sim::ElementKind::Resistor), sim::StampClass::Conductance);
  EXPECT_EQ(sim::dc_stamp_class(sim::ElementKind::Mcu), sim::StampClass::Conductance);
  EXPECT_EQ(sim::dc_stamp_class(sim::ElementKind::Switch), sim::StampClass::Conductance);
  EXPECT_EQ(sim::dc_stamp_class(sim::ElementKind::Diode), sim::StampClass::Conductance);
  EXPECT_EQ(sim::dc_stamp_class(sim::ElementKind::VSource), sim::StampClass::Branch);
  EXPECT_EQ(sim::dc_stamp_class(sim::ElementKind::CurrentSensor), sim::StampClass::Branch);
  EXPECT_EQ(sim::dc_stamp_class(sim::ElementKind::Inductor), sim::StampClass::Branch);
  EXPECT_EQ(sim::dc_stamp_class(sim::ElementKind::Capacitor), sim::StampClass::None);
  EXPECT_EQ(sim::dc_stamp_class(sim::ElementKind::ISource), sim::StampClass::None);
  EXPECT_EQ(sim::dc_stamp_class(sim::ElementKind::VoltageSensor), sim::StampClass::None);

  const auto built = mcu_rig();
  const sim::CampaignSparseContext context(built.circuit, sim::SolveOptions{});
  ASSERT_TRUE(context.usable());
  auto keeps = [&](const sim::Fault& fault) {
    return context.keeps_stamp_stream(sim::inject_fault(built.circuit, fault), fault);
  };
  // Conductance stays conductance: value-only.
  EXPECT_TRUE(keeps({"R1", sim::FaultKind::Open}));
  EXPECT_TRUE(keeps({"R1", sim::FaultKind::Short}));
  EXPECT_TRUE(keeps({"R1", sim::FaultKind::Drift}));
  EXPECT_TRUE(keeps({"MC1", sim::FaultKind::Drift}));
  EXPECT_TRUE(keeps({"MC1", sim::FaultKind::RamFailure}));
  // Value faults on a source keep its branch; Open/Short turn it into a
  // resistor, a different class.
  EXPECT_TRUE(keeps({"V1", sim::FaultKind::Drift}));
  EXPECT_TRUE(keeps({"V1", sim::FaultKind::StuckOff}));
  EXPECT_FALSE(keeps({"V1", sim::FaultKind::Open}));
  EXPECT_FALSE(keeps({"V1", sim::FaultKind::Short}));
}

TEST(StampStream, SameStreamDecisionIsExactOnEverySubject) {
  // Seeded property: over every fault task of the random rails (inductor and
  // source faults included), the reference subject and the bench_campaign
  // rail, whenever the context says "same stream" the plan it solves on —
  // the nominal one — must equal the plan derived from scratch for the
  // faulted circuit, in pattern, slots and fingerprint.
  struct Subject {
    std::string name;
    sim::BuiltCircuit built;
    core::ReliabilityModel reliability;
  };
  std::vector<Subject> subjects;
  for (const std::uint32_t seed : {3u, 7u, 11u, 29u}) {
    subjects.push_back({"random_rail/" + std::to_string(seed),
                        rail_subjects::random_rail(seed, 24),
                        rail_subjects::random_rail_reliability()});
  }
  ReferenceSubject reference = power_supply();
  subjects.push_back({"power_supply", std::move(reference.built),
                      std::move(reference.reliability)});
  subjects.push_back({"bench_rail", bench_rail(24), bench_rail_reliability()});

  const sim::SolveOptions options;
  std::size_t same_total = 0;
  std::size_t changed_total = 0;
  for (const Subject& subject : subjects) {
    const sim::CampaignSparseContext context(subject.built.circuit, options);
    ASSERT_TRUE(context.usable()) << subject.name;
    const sim::StampPlan nominal = context.nominal_plan();
    EXPECT_EQ(nominal, sim::build_stamp_plan(subject.built.circuit, options)) << subject.name;
    std::size_t same = 0;
    std::size_t changed = 0;
    for (const FaultCase& c : fault_cases(subject.built, subject.reliability, options)) {
      const std::string label =
          subject.name + " " + c.fault.element + "/" + std::string(to_string(c.fault.kind));
      if (!context.keeps_stamp_stream(c.faulted, c.fault)) {
        ++changed;
        continue;
      }
      ++same;
      const sim::StampPlan rebuilt = sim::build_stamp_plan(c.faulted, options);
      EXPECT_EQ(nominal.pattern, rebuilt.pattern) << label;
      EXPECT_EQ(nominal.slots, rebuilt.slots) << label;
      EXPECT_EQ(nominal.fingerprint, rebuilt.fingerprint) << label;
    }
    EXPECT_GT(same, 0u) << subject.name;
    if (subject.name == "bench_rail") {
      EXPECT_EQ(changed, 0u) << "every bench-rail fault is value-only";
    }
    same_total += same;
    changed_total += changed;
  }
  // Guard against vacuity: the random rails' source and inductor Open/Short
  // faults must exercise the stream-changing side of the decision.
  EXPECT_GT(changed_total, 0u);
  EXPECT_GT(same_total, changed_total);
}
