// Crash-safe resumable campaigns (ROADMAP item 5): the checkpoint journal,
// kill-and-resume byte-identity, journal poisoning (torn tails, bit flips,
// foreign fingerprints), deterministic sharding + merge, and failure
// containment (Crashed classification, bounded retries, the circuit
// breaker). The invariant under test everywhere: the journal and the
// containment machinery may delay a campaign, but the FMEDA artefact is
// byte-identical to an uninterrupted, unsharded, serial run — or the
// corruption is detected and the affected tasks re-run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/core/campaign.hpp"
#include "decisive/core/campaign_journal.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/drivers/datasource.hpp"
#include "decisive/drivers/mdl.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/sim/builder.hpp"

using namespace decisive;

namespace {

const std::string kAssets = DECISIVE_ASSETS_DIR;

/// Unique scratch directory per test, removed on destruction.
struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("decisive_journal_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }

  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

/// RAII environment hook: set on construction, cleared on destruction, so a
/// failing test cannot leak a crash hook into its neighbours.
struct EnvHook {
  std::string name;
  EnvHook(std::string variable, const std::string& value) : name(std::move(variable)) {
    ::setenv(name.c_str(), value.c_str(), 1);
  }
  ~EnvHook() { ::unsetenv(name.c_str()); }
};

/// The paper's power-supply case study: 9 fault tasks, 3 skipped components.
struct PowerRig {
  sim::BuiltCircuit built;
  core::ReliabilityModel reliability;

  PowerRig()
      : built(sim::build_circuit(drivers::parse_mdl_file(kAssets + "/power_supply.mdl"))),
        reliability(core::ReliabilityModel::from_source(
            *drivers::DriverRegistry::global().open(kAssets + "/reliability_workbook"),
            "Reliability")) {}

  [[nodiscard]] core::FmedaResult run(const core::CircuitFmeaOptions& options) const {
    return core::analyze_circuit(built, reliability, nullptr, options);
  }
  [[nodiscard]] core::CampaignRunner runner(core::CircuitFmeaOptions options) const {
    return core::CampaignRunner(built, reliability, nullptr, std::move(options));
  }
};

/// Single-task rig from robustness_test: V1 "Drift" is the one fault.
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

core::ReliabilityModel drifting_reliability() {
  core::ReliabilityModel reliability;
  reliability.add("Source", 5.0, {{"Drift", 1.0}});
  return reliability;
}

std::string fmeda_bytes(const core::FmedaResult& result) {
  return write_csv(result.to_csv());
}

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path, const std::vector<std::string>& lines,
                 const std::string& unterminated_tail = "") {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const auto& line : lines) out << line << '\n';
  out << unterminated_tail;
}

}  // namespace

TEST(CampaignJournalFormat, RowTokensRoundTripEveryField) {
  core::FmedaRow row;
  row.component = "Sub System/MC 1";  // spaces must survive the framing
  row.component_type = "MC";
  row.component_id = 42;
  row.component_path = "top/Sub System/MC 1";
  row.fit = 12.625;
  row.failure_mode = "RAM Failure";
  row.distribution = 0.3;  // not exactly representable: needs the %a round-trip
  row.safety_related = true;
  row.effect = core::EffectClass::DVF;
  row.safety_mechanism = "ECC % monitor";
  row.sm_coverage = 0.99;
  row.sm_cost_hours = 17.5;
  row.outcome = core::FaultOutcome::Crashed;
  row.outcome_detail = "injected task crash (DECISIVE_CAMPAIGN_TASK_THROW)";
  row.solver_iterations = 137;
  row.ladder_rung = 2;
  row.retries = 1;

  const std::string journal_tokens = core::journal_row_tokens(row);
  const std::vector<std::string> tokens = split(journal_tokens, ' ');
  // One row codec: the journal row is the shared FmedaRow tokens (also the
  // session cache's row record) followed by five campaign-outcome fields.
  EXPECT_EQ(journal_tokens.rfind(core::fmeda_row_tokens(row) + ' ', 0), 0u);
  EXPECT_EQ(tokens.size(), core::kFmedaRowTokenCount + 5);
  const core::FmedaRow back = core::journal_row_from_tokens(tokens, 0);
  EXPECT_EQ(back.component, row.component);
  EXPECT_EQ(back.component_type, row.component_type);
  EXPECT_EQ(back.component_id, row.component_id);
  EXPECT_EQ(back.component_path, row.component_path);
  EXPECT_EQ(back.fit, row.fit);
  EXPECT_EQ(back.failure_mode, row.failure_mode);
  EXPECT_EQ(back.distribution, row.distribution);
  EXPECT_EQ(back.safety_related, row.safety_related);
  EXPECT_EQ(back.effect, row.effect);
  EXPECT_EQ(back.safety_mechanism, row.safety_mechanism);
  EXPECT_EQ(back.sm_coverage, row.sm_coverage);
  EXPECT_EQ(back.sm_cost_hours, row.sm_cost_hours);
  EXPECT_EQ(back.outcome, row.outcome);
  EXPECT_EQ(back.outcome_detail, row.outcome_detail);
  EXPECT_EQ(back.solver_iterations, row.solver_iterations);
  EXPECT_EQ(back.ladder_rung, row.ladder_rung);
  EXPECT_EQ(back.retries, row.retries);

  EXPECT_THROW((void)core::journal_row_from_tokens({"x"}, 0), ParseError);
}

TEST(CampaignJournal, JournaledRunAndFullReplayMatchPlainRunBytes) {
  const TempDir dir("plain");
  const PowerRig rig;
  core::CircuitFmeaOptions options;
  options.safety_goal_observables = {"CS1", "MC1"};
  const auto plain = rig.run(options);
  ASSERT_FALSE(plain.rows.empty());

  options.execution.journal_path = dir.file("campaign.journal");
  const auto journaled = rig.run(options);
  EXPECT_EQ(fmeda_bytes(plain), fmeda_bytes(journaled));
  EXPECT_EQ(plain.warnings, journaled.warnings);

  // Second run resumes from a complete journal: every task replays, the
  // artefact stays byte-identical.
  const auto replayed = rig.run(options);
  EXPECT_EQ(fmeda_bytes(plain), fmeda_bytes(replayed));
  EXPECT_EQ(plain.warnings, replayed.warnings);

  const auto replay = core::replay_campaign_journal(
      options.execution.journal_path, nullptr);
  EXPECT_TRUE(replay.compatible);
  EXPECT_EQ(replay.rows.size(), plain.rows.size());
  EXPECT_EQ(replay.dropped_lines, 0u);
}

TEST(CampaignJournal, PartialJournalResumesByteIdenticalAtAnyJobCount) {
  const TempDir dir("resume");
  const PowerRig rig;
  core::CircuitFmeaOptions options;
  options.safety_goal_observables = {"CS1", "MC1"};
  const auto plain = rig.run(options);

  // Build the "crashed mid-campaign" specimen: the full journal minus its
  // last 5 row records — exactly what a SIGKILL after 4 appends leaves.
  options.execution.journal_path = dir.file("full.journal");
  (void)rig.run(options);
  std::vector<std::string> lines = file_lines(options.execution.journal_path);
  ASSERT_GT(lines.size(), 5u);
  lines.resize(lines.size() - 5);

  for (const int jobs : {1, 3, 8}) {
    const std::string partial = dir.file("partial" + std::to_string(jobs) + ".journal");
    write_lines(partial, lines);
    core::CircuitFmeaOptions resumed_options = options;
    resumed_options.execution.journal_path = partial;
    resumed_options.jobs = jobs;
    const auto resumed = rig.run(resumed_options);
    EXPECT_EQ(fmeda_bytes(plain), fmeda_bytes(resumed)) << "jobs=" << jobs;
    EXPECT_EQ(plain.warnings, resumed.warnings) << "jobs=" << jobs;
    // The journal is complete again after the resume.
    const auto replay = core::replay_campaign_journal(partial, nullptr);
    EXPECT_EQ(replay.rows.size(), plain.rows.size()) << "jobs=" << jobs;
  }
}

TEST(CampaignJournal, TornTailIsTrimmedNotTrusted) {
  const TempDir dir("torn");
  const PowerRig rig;
  core::CircuitFmeaOptions options;
  options.safety_goal_observables = {"CS1", "MC1"};
  const auto plain = rig.run(options);

  options.execution.journal_path = dir.file("torn.journal");
  (void)rig.run(options);
  // A crash mid-append tears the final line: no terminator, no checksum.
  std::vector<std::string> lines = file_lines(options.execution.journal_path);
  const std::string torn_half = lines.back().substr(0, lines.back().size() / 2);
  lines.pop_back();
  write_lines(options.execution.journal_path, lines, torn_half);

  const auto replay =
      core::replay_campaign_journal(options.execution.journal_path, nullptr);
  ASSERT_TRUE(replay.compatible);
  EXPECT_EQ(replay.rows.size(), plain.rows.size() - 1);
  EXPECT_EQ(replay.dropped_lines, 1u);
  EXPECT_NE(replay.note.find("torn tail"), std::string::npos);

  // Resuming re-runs only the torn task and restores byte-identity.
  const auto resumed = rig.run(options);
  EXPECT_EQ(fmeda_bytes(plain), fmeda_bytes(resumed));
  EXPECT_EQ(plain.warnings, resumed.warnings);
}

TEST(CampaignJournal, InteriorBitFlipDropsTheTailNeverWrongRows) {
  const TempDir dir("bitflip");
  const PowerRig rig;
  core::CircuitFmeaOptions options;
  options.safety_goal_observables = {"CS1", "MC1"};
  const auto plain = rig.run(options);

  options.execution.journal_path = dir.file("flip.journal");
  (void)rig.run(options);
  std::vector<std::string> lines = file_lines(options.execution.journal_path);
  // Count the preamble so we can flip a bit inside the third row record.
  size_t first_row = 0;
  while (first_row < lines.size() && !starts_with(lines[first_row], "row ")) ++first_row;
  const size_t victim = first_row + 2;
  ASSERT_LT(victim, lines.size());
  lines[victim][lines[victim].size() / 2] ^= 0x01;
  write_lines(options.execution.journal_path, lines);

  const auto replay =
      core::replay_campaign_journal(options.execution.journal_path, nullptr);
  ASSERT_TRUE(replay.compatible);
  // Only the records *before* the flip survive; everything after is dropped
  // (a record after a corrupt one cannot be trusted), never mis-parsed.
  EXPECT_EQ(replay.rows.size(), 2u);
  EXPECT_EQ(replay.dropped_lines, lines.size() - victim);
  EXPECT_NE(replay.note.find("corrupt record"), std::string::npos);

  const auto resumed = rig.run(options);
  EXPECT_EQ(fmeda_bytes(plain), fmeda_bytes(resumed));
  EXPECT_EQ(plain.warnings, resumed.warnings);
}

TEST(CampaignJournal, ForeignFingerprintIsDiscardedAndRebuilt) {
  const TempDir dir("foreign");
  const PowerRig rig;
  core::CircuitFmeaOptions options;
  options.safety_goal_observables = {"CS1", "MC1"};
  options.execution.journal_path = dir.file("campaign.journal");
  (void)rig.run(options);

  // Same journal path, different campaign identity (classification
  // threshold): the journal must be discarded, never merged into the run.
  core::CircuitFmeaOptions other = options;
  other.relative_threshold = 0.05;
  EXPECT_NE(rig.runner(options).fingerprint(), rig.runner(other).fingerprint());

  const core::CampaignJournalHeader other_header = rig.runner(other).journal_header();
  const auto checked =
      core::replay_campaign_journal(options.execution.journal_path, &other_header);
  EXPECT_FALSE(checked.compatible);
  EXPECT_NE(checked.note.find("different campaign"), std::string::npos);

  core::CircuitFmeaOptions other_plain = other;
  other_plain.execution.journal_path.clear();
  const auto expected = rig.run(other_plain);
  const auto rebuilt = rig.run(other);
  EXPECT_EQ(fmeda_bytes(expected), fmeda_bytes(rebuilt));
  // The journal now carries the new campaign's fingerprint.
  const auto replay = core::replay_campaign_journal(options.execution.journal_path, nullptr);
  EXPECT_EQ(replay.header.fingerprint, rig.runner(other).fingerprint());
}

TEST(CampaignJournal, FingerprintIgnoresJobsShardAndJournalPath) {
  const PowerRig rig;
  core::CircuitFmeaOptions options;
  options.safety_goal_observables = {"CS1", "MC1"};
  const std::uint64_t base = rig.runner(options).fingerprint();

  core::CircuitFmeaOptions variant = options;
  variant.jobs = 8;
  variant.execution.journal_path = "/nonexistent/elsewhere.journal";
  variant.execution.shard_index = 1;
  variant.execution.shard_count = 4;
  EXPECT_EQ(base, rig.runner(variant).fingerprint());

  variant = options;
  variant.execution.max_retries = 3;  // retries can change rows -> identity
  EXPECT_NE(base, rig.runner(variant).fingerprint());
}

TEST(CampaignSharding, ShardsPartitionTheTaskList) {
  const PowerRig rig;
  core::CircuitFmeaOptions options;
  options.execution.shard_count = 3;
  std::vector<int> owners(rig.runner(options).tasks().size(), 0);
  for (int shard = 0; shard < 3; ++shard) {
    options.execution.shard_index = shard;
    for (const size_t index : rig.runner(options).shard_task_indices()) {
      owners[index] += 1;
    }
  }
  for (const int count : owners) EXPECT_EQ(count, 1);  // exactly one owner each
}

TEST(CampaignSharding, MergedShardJournalsMatchUnshardedRunBytes) {
  const TempDir dir("shards");
  const PowerRig rig;
  core::CircuitFmeaOptions options;
  options.safety_goal_observables = {"CS1", "MC1"};
  const auto plain = rig.run(options);

  std::vector<std::string> journals;
  for (int shard = 0; shard < 3; ++shard) {
    core::CircuitFmeaOptions shard_options = options;
    shard_options.execution.shard_index = shard;
    shard_options.execution.shard_count = 3;
    shard_options.execution.journal_path =
        dir.file("shard" + std::to_string(shard) + ".journal");
    (void)rig.run(shard_options);
    journals.push_back(shard_options.execution.journal_path);
  }

  const auto merged = core::merge_campaign_journals(journals);
  EXPECT_EQ(fmeda_bytes(plain), fmeda_bytes(merged));
  EXPECT_EQ(plain.warnings, merged.warnings);
  EXPECT_EQ(plain.outcome_summary(), merged.outcome_summary());

  // A missing shard is an error, not a silently smaller FMEDA.
  EXPECT_THROW((void)core::merge_campaign_journals({journals[0], journals[2]}),
               AnalysisError);

  // An incomplete shard (journal missing one row) is an error too.
  std::vector<std::string> lines = file_lines(journals[1]);
  lines.pop_back();
  write_lines(journals[1], lines);
  EXPECT_THROW((void)core::merge_campaign_journals(journals), AnalysisError);
}

TEST(CampaignSharding, InvalidShardSpecThrows) {
  const PowerRig rig;
  core::CircuitFmeaOptions options;
  options.execution.shard_index = 3;
  options.execution.shard_count = 3;
  EXPECT_THROW((void)rig.run(options), AnalysisError);
}

TEST(CampaignContainment, TaskCrashIsClassifiedNotFatal) {
  const EnvHook hook("DECISIVE_CAMPAIGN_TASK_THROW", "V1/Drift");
  core::CircuitFmeaOptions options;
  options.execution.max_retries = 0;
  const auto result = core::analyze_circuit(drifting_source_rig(), drifting_reliability(),
                                            nullptr, options);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].outcome, core::FaultOutcome::Crashed);
  EXPECT_TRUE(result.rows[0].safety_related);  // cannot be ruled benign
  EXPECT_EQ(result.rows[0].effect, core::EffectClass::None);
  EXPECT_EQ(result.rows[0].retries, 0);
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].find("crashed its campaign worker"), std::string::npos);
  EXPECT_NE(result.warnings[0].find("conservatively marked safety-related"),
            std::string::npos);
  EXPECT_EQ(result.warnings[0], core::outcome_warning(result.rows[0]));
}

TEST(CampaignContainment, TransientCrashRecoversOnRetry) {
  // "@1": only attempt 0 throws — the deterministic transient failure. The
  // bounded retry must land the normal classification, annotated with the
  // retry count.
  const EnvHook hook("DECISIVE_CAMPAIGN_TASK_THROW", "V1/Drift@1");
  core::CircuitFmeaOptions options;
  options.execution.max_retries = 1;
  options.execution.retry_budget_scale = 1.0;
  const auto result = core::analyze_circuit(drifting_source_rig(), drifting_reliability(),
                                            nullptr, options);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].outcome, core::FaultOutcome::Converged);
  EXPECT_EQ(result.rows[0].effect, core::EffectClass::DVF);
  EXPECT_EQ(result.rows[0].retries, 1);
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].find("took 1 containment retry"), std::string::npos);
  EXPECT_EQ(result.warnings[0], core::outcome_warning(result.rows[0]));
}

TEST(CampaignContainment, PersistentCrashExhaustsRetriesAndStaysCrashed) {
  const EnvHook hook("DECISIVE_CAMPAIGN_TASK_THROW", "V1/Drift");
  core::CircuitFmeaOptions options;
  options.execution.max_retries = 2;
  const auto result = core::analyze_circuit(drifting_source_rig(), drifting_reliability(),
                                            nullptr, options);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].outcome, core::FaultOutcome::Crashed);
  EXPECT_EQ(result.rows[0].retries, 2);
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].find("took 2 containment retries"), std::string::npos);
}

TEST(CampaignContainment, WorkerDeathTripsBreakerAndCampaignStillCompletes) {
  const PowerRig rig;
  core::CircuitFmeaOptions options;
  options.safety_goal_observables = {"CS1", "MC1"};
  const auto plain = rig.run(options);

  const std::uint64_t trips_before =
      obs::Registry::global().counter("decisive_campaign_breaker_trips_total").value();
  const EnvHook hook("DECISIVE_CAMPAIGN_WORKER_DIE", "0");
  core::CircuitFmeaOptions parallel = options;
  parallel.jobs = 4;
  const auto survived = rig.run(parallel);
  EXPECT_EQ(fmeda_bytes(plain), fmeda_bytes(survived));
  EXPECT_EQ(plain.warnings, survived.warnings);
  EXPECT_GT(
      obs::Registry::global().counter("decisive_campaign_breaker_trips_total").value(),
      trips_before);
}

namespace {

/// Two ideal sources pinning one node to different voltages: the baseline is
/// singular on every ladder rung — the "unanalysable design" specimen.
sim::BuiltCircuit conflicting_baseline_rig() {
  sim::BuiltCircuit built;
  sim::Circuit& c = built.circuit;
  const int a = c.node("a");
  c.add_vsource("V1", a, 0, 5.0);
  c.add_vsource("V2", a, 0, 3.0);
  c.add_resistor("R1", a, 0, 100.0);
  c.add_voltage_sensor("VS1", a, 0);
  built.observables.push_back("VS1");
  built.components.push_back({"V1", "Source", "V1"});
  return built;
}

}  // namespace

TEST(CampaignContainment, BestEffortDegradesUnanalysableBaseline) {
  const TempDir dir("besteffort");
  core::CircuitFmeaOptions options;
  EXPECT_THROW((void)core::analyze_circuit(conflicting_baseline_rig(),
                                           drifting_reliability(), nullptr, options),
               SimulationError);

  options.execution.best_effort = true;
  options.execution.journal_path = dir.file("degraded.journal");
  const auto degraded = core::analyze_circuit(conflicting_baseline_rig(),
                                              drifting_reliability(), nullptr, options);
  ASSERT_EQ(degraded.rows.size(), 1u);
  EXPECT_EQ(degraded.rows[0].outcome, core::FaultOutcome::NotApplicable);
  EXPECT_NE(degraded.rows[0].outcome_detail.find("best-effort"), std::string::npos);
  bool noted = false;
  for (const auto& warning : degraded.warnings) {
    if (warning.find("best-effort") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);

  // Degraded rows carry no computed result — they must NOT be checkpointed;
  // a rerun against a fixed baseline re-executes them.
  const auto replay =
      core::replay_campaign_journal(options.execution.journal_path, nullptr);
  ASSERT_TRUE(replay.compatible);
  EXPECT_TRUE(replay.rows.empty());
}
