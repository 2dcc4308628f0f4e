// End-to-end tests of the `same` command-line tool (subprocess driven).
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "decisive/base/json.hpp"
#include "decisive/obs/snapshot.hpp"

namespace {

const std::string kCli = SAME_CLI_PATH;
const std::string kAssets = DECISIVE_ASSETS_DIR;

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// `env_prefix` is prepended verbatim (e.g. "VAR=1 ") so crash-injection
/// hooks can be enabled for a single subprocess invocation.
RunResult run(const std::string& arguments, const std::string& env_prefix = "") {
  const std::string command = env_prefix + kCli + " " + arguments + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  RunResult result;
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("decisive-cli-" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

}  // namespace

TEST(Cli, HelpShowsUsage) {
  const auto result = run("help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("same fmea"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto result = run("frobnicate");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown command"), std::string::npos);
}

TEST(Cli, FmeaReproducesTheCaseStudy) {
  const auto result = run("fmea " + kAssets + "/power_supply.mdl --reliability " + kAssets +
                          "/reliability_workbook --sm-model --goals CS1,MC1");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("96.77%"), std::string::npos);
  EXPECT_NE(result.output.find("ASIL-B"), std::string::npos);
  EXPECT_NE(result.output.find("ECC"), std::string::npos);
}

TEST(Cli, FmeaWithoutMechanismsFailsAsilB) {
  const auto result = run("fmea " + kAssets + "/power_supply.mdl --reliability " + kAssets +
                          "/reliability_workbook --goals CS1,MC1");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("5.38%"), std::string::npos);
}

TEST(Cli, FmeaRequiresReliability) {
  const auto result = run("fmea " + kAssets + "/power_supply.mdl");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("--reliability"), std::string::npos);
}

TEST(Cli, FmeaWritesCsv) {
  TempDir tmp;
  const auto out = (tmp.path / "fmeda.csv").string();
  const auto result = run("fmea " + kAssets + "/power_supply.mdl --reliability " + kAssets +
                          "/reliability_workbook --out " + out);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_TRUE(std::filesystem::exists(out));
}

TEST(Cli, ImportExportRoundTrip) {
  TempDir tmp;
  const auto ssam = (tmp.path / "design.ssam").string();
  const auto mdl = (tmp.path / "back.mdl").string();

  auto result = run("import " + kAssets + "/power_supply.mdl --out " + ssam);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("lossless"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(ssam));

  result = run("export " + ssam + " --out " + mdl);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  ASSERT_TRUE(std::filesystem::exists(mdl));

  // The regenerated model analyses identically.
  result = run("fmea " + mdl + " --reliability " + kAssets +
               "/reliability_workbook --goals CS1,MC1");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("5.38%"), std::string::npos);
}

TEST(Cli, QueryAgainstWorkbook) {
  const auto result =
      run("query " + kAssets +
          "/reliability_workbook \"rows('Reliability').select(r | r.Component == "
          "'Diode').first().FIT\"");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("10"), std::string::npos);
}

TEST(Cli, QueryErrorsAreReported) {
  const auto result = run("query " + kAssets + "/reliability_workbook \"rows('Nope')\"");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("Nope"), std::string::npos);
}

TEST(Cli, ScalabilityBothBackends) {
  const auto result = run("scalability 5000");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("full-load"), std::string::npos);
  EXPECT_NE(result.output.find("indexed"), std::string::npos);
}

TEST(Cli, ScalabilityRefusesOversizedFullLoad) {
  // 5M elements project to ~1 GiB, over the 128 MiB budget: full-load must
  // refuse up front while the indexed back-end streams them.
  const auto result = run("scalability 5000000 --budget-mib 128");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("N/A"), std::string::npos);
}

TEST(Cli, ValidateWellFormedModel) {
  const auto result = run("validate " + kAssets + "/brake_chain.ssam");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("well-formed"), std::string::npos);
}

TEST(Cli, FtaOnSsamModel) {
  const auto result =
      run("fta " + kAssets + "/brake_chain.ssam --component BrakeChain --mission-hours 1000");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("[OR]"), std::string::npos);
  EXPECT_NE(result.output.find("minimal cut sets: 2"), std::string::npos);
  EXPECT_NE(result.output.find("Fussell-Vesely"), std::string::npos);
  EXPECT_NE(result.output.find("loss of 'Sensor'"), std::string::npos);
}

TEST(Cli, FtaUnknownComponentFails) {
  const auto result = run("fta " + kAssets + "/brake_chain.ssam --component Ghost");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("Ghost"), std::string::npos);
}

TEST(Cli, GraphFmeaAnalysesSsamArchitecture) {
  const auto result = run("graph-fmea " + kAssets + "/brake_chain.ssam --component BrakeChain");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("Sensor"), std::string::npos);
  EXPECT_NE(result.output.find("Driver"), std::string::npos);
  EXPECT_NE(result.output.find("SPFM"), std::string::npos);
}

TEST(Cli, GraphFmeaOutputIdenticalAcrossJobCounts) {
  TempDir tmp;
  const auto serial = (tmp.path / "serial.csv").string();
  const auto parallel = (tmp.path / "parallel.csv").string();
  const auto run1 = run("graph-fmea " + kAssets +
                        "/brake_chain.ssam --component BrakeChain --jobs 1 --out " + serial);
  const auto run2 = run("graph-fmea " + kAssets +
                        "/brake_chain.ssam --component BrakeChain --jobs 4 --out " + parallel);
  EXPECT_EQ(run1.exit_code, 0) << run1.output;
  EXPECT_EQ(run2.exit_code, 0) << run2.output;
  std::ifstream a(serial), b(parallel);
  const std::string serial_bytes((std::istreambuf_iterator<char>(a)),
                                 std::istreambuf_iterator<char>());
  const std::string parallel_bytes((std::istreambuf_iterator<char>(b)),
                                   std::istreambuf_iterator<char>());
  EXPECT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, parallel_bytes);
}

TEST(Cli, GraphFmeaUnknownComponentFails) {
  const auto result = run("graph-fmea " + kAssets + "/brake_chain.ssam --component Ghost");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("Ghost"), std::string::npos);
}

TEST(Cli, MonitorGeneratesAndReplaysFrames) {
  TempDir tmp;
  const auto frames = (tmp.path / "frames.csv").string();
  {
    FILE* f = fopen(frames.c_str(), "w");
    fputs("Sensor.Sensor.out\n1.0\n2.0\n9.0\n", f);  // last frame violates
    fclose(f);
  }
  const auto result =
      run("monitor " + kAssets + "/brake_chain.ssam --samples " + frames);
  EXPECT_EQ(result.exit_code, 3) << result.output;  // violations present
  EXPECT_NE(result.output.find("Runtime monitor (1 checks)"), std::string::npos);
  EXPECT_NE(result.output.find("frame 2"), std::string::npos);
  EXPECT_NE(result.output.find("above bound"), std::string::npos);
  EXPECT_NE(result.output.find("3 frame(s), 1 violation(s)"), std::string::npos);
}

TEST(Cli, MonitorCleanReplayExitsZero) {
  TempDir tmp;
  const auto frames = (tmp.path / "frames.csv").string();
  {
    FILE* f = fopen(frames.c_str(), "w");
    fputs("Sensor.Sensor.out\n1.0\n2.0\n", f);
    fclose(f);
  }
  const auto result =
      run("monitor " + kAssets + "/brake_chain.ssam --samples " + frames);
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(Cli, MonitorWithNothingDynamicExitsZero) {
  // A valid model with no dynamic components is a clean outcome (exit 0 +
  // note), distinguishable from violations (3) and errors (1/2).
  TempDir tmp;
  const auto ssam = (tmp.path / "ps.ssam").string();
  ASSERT_EQ(run("import " + kAssets + "/power_supply.mdl --out " + ssam).exit_code, 0);
  const auto result = run("monitor " + ssam);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("nothing to monitor"), std::string::npos);
}

TEST(Cli, ImpactPrintsTheChangeReport) {
  const auto result = run("impact " + kAssets + "/brake_chain.ssam Sensor");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("Impact of changing 'Sensor'"), std::string::npos);
  EXPECT_NE(result.output.find("connected components"), std::string::npos);
}

TEST(Cli, ImpactUnknownComponentFails) {
  const auto result = run("impact " + kAssets + "/brake_chain.ssam NoSuch");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("no component named"), std::string::npos);
}

TEST(Cli, SessionRunsAScriptedLoop) {
  TempDir tmp;
  const auto script = (tmp.path / "script.txt").string();
  {
    FILE* f = fopen(script.c_str(), "w");
    fputs("reanalyze\nset-fit Sensor 120\nreanalyze\nresult\nmetrics\nquit\n", f);
    fclose(f);
  }
  const auto result = run("session " + kAssets +
                          "/brake_chain.ssam --component BrakeChain < " + script);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("same session ready"), std::string::npos);
  EXPECT_NE(result.output.find("hit-rate"), std::string::npos);
  EXPECT_NE(result.output.find("spfm"), std::string::npos);
  // The `metrics` request answers Prometheus text from the process-wide
  // instrumentation registry.
  EXPECT_NE(result.output.find("decisive_session_cache_hits_total"), std::string::npos);
  EXPECT_NE(result.output.find("decisive_session_request_seconds_bucket"),
            std::string::npos);
}

TEST(Cli, CampaignIsAnAliasForFmea) {
  const auto result = run("campaign " + kAssets + "/power_supply.mdl --reliability " +
                          kAssets + "/reliability_workbook --goals CS1,MC1");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("5.38%"), std::string::npos);
}

TEST(Cli, TraceFlagWritesAValidChromeTrace) {
  TempDir tmp;
  const auto trace = (tmp.path / "trace.json").string();
  const auto result = run("campaign " + kAssets + "/power_supply.mdl --reliability " +
                          kAssets + "/reliability_workbook --jobs 2 --trace " + trace);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("trace:"), std::string::npos);
  const auto check = run("check-trace " + trace);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_NE(check.output.find("well-formed"), std::string::npos);
}

TEST(Cli, GraphFmeaSupportsTracingToo) {
  TempDir tmp;
  const auto trace = (tmp.path / "trace.json").string();
  const auto result = run("graph-fmea " + kAssets +
                          "/brake_chain.ssam --component BrakeChain --trace " + trace);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const auto check = run("check-trace " + trace);
  EXPECT_EQ(check.exit_code, 0) << check.output;
}

TEST(Cli, CheckTraceRejectsGarbage) {
  TempDir tmp;
  const auto bogus = (tmp.path / "bogus.json").string();
  {
    std::ofstream out(bogus);
    out << "this is not a trace\n";
  }
  const auto result = run("check-trace " + bogus);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("invalid trace"), std::string::npos);
}

TEST(Cli, TraceRequiresAnOutputPath) {
  const auto result = run("campaign " + kAssets + "/power_supply.mdl --trace");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--trace requires"), std::string::npos);
}

TEST(Cli, MetricsDumpListsEngineCounters) {
  TempDir tmp;
  const auto metrics = (tmp.path / "metrics.txt").string();
  const auto result = run("graph-fmea " + kAssets +
                          "/brake_chain.ssam --component BrakeChain --metrics " + metrics);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::ifstream in(metrics);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("decisive_graph_fmea_runs_total 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE decisive_graph_fmea_unit_seconds histogram"),
            std::string::npos);
}

TEST(Cli, FmedaIsByteIdenticalWithAndWithoutTrace) {
  TempDir tmp;
  const auto plain_csv = (tmp.path / "plain.csv").string();
  const auto traced_csv = (tmp.path / "traced.csv").string();
  const auto trace = (tmp.path / "trace.json").string();
  const std::string base = "campaign " + kAssets + "/power_supply.mdl --reliability " +
                           kAssets + "/reliability_workbook --jobs 2 --goals CS1,MC1";
  const auto plain = run(base + " --out " + plain_csv);
  const auto traced = run(base + " --out " + traced_csv + " --trace " + trace);
  EXPECT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(traced.exit_code, 0) << traced.output;

  const auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string plain_bytes = read(plain_csv);
  EXPECT_FALSE(plain_bytes.empty());
  EXPECT_EQ(plain_bytes, read(traced_csv));
}

TEST(Cli, SessionRequiresComponentWithModelPath) {
  const auto result = run("session " + kAssets + "/brake_chain.ssam < /dev/null");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--component"), std::string::npos);
}

TEST(Cli, AssuranceEvaluatesCaseXml) {
  TempDir tmp;
  // Evidence + case referencing it.
  const auto evidence = (tmp.path / "evidence.csv").string();
  {
    FILE* f = fopen(evidence.c_str(), "w");
    fputs("metric\n0.97\n", f);
    fclose(f);
  }
  const auto case_path = (tmp.path / "case.xml").string();
  {
    FILE* f = fopen(case_path.c_str(), "w");
    fprintf(f,
            "<assuranceCase name=\"t\">"
            "<node kind=\"Claim\" id=\"G1\" statement=\"ok\">"
            "<supportedBy ref=\"E1\"/></node>"
            "<node kind=\"ArtifactReference\" id=\"E1\" statement=\"ev\" "
            "location=\"%s\" type=\"csv\">"
            "<query>rows().first().metric &gt;= 0.9</query></node>"
            "</assuranceCase>",
            evidence.c_str());
    fclose(f);
  }
  const auto result = run("assurance " + case_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("SUPPORTED"), std::string::npos);
}

// ---------------------------------------------------------------------------
// sm-search: deployment search over a safety-mechanism catalogue
// ---------------------------------------------------------------------------

namespace {

/// Writes the brake-chain test catalogue and returns its path.
std::string write_catalogue(const TempDir& tmp) {
  const auto path = (tmp.path / "catalogue.csv").string();
  FILE* f = fopen(path.c_str(), "w");
  fputs(
      "Component,Failure_Mode,Safety_Mechanism,Cov.,Cost(hrs)\n"
      "Sensor,No output,Redundant sensor,95%,4.0\n"
      "Sensor,No output,Heartbeat check,80%,1.0\n"
      "Driver,Open,Duplex driver,90%,2.0\n",
      f);
  fclose(f);
  return path;
}

std::string sm_search_args(const std::string& catalogue) {
  return "sm-search " + kAssets + "/brake_chain.ssam --component BrakeChain --catalogue " +
         catalogue;
}

}  // namespace

TEST(Cli, SmSearchPrintsTheParetoFront) {
  TempDir tmp;
  const auto result = run(sm_search_args(write_catalogue(tmp)) + " --pareto");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("Cost(hrs),SPFM,ASIL,Choices,Deployment"), std::string::npos);
  EXPECT_NE(result.output.find("Sensor/No output=Heartbeat check"), std::string::npos);
  EXPECT_NE(result.output.find(
                "6,95.6667%,ASIL-B,2,"
                "Sensor/No output=Redundant sensor; Driver/Open=Duplex driver"),
            std::string::npos);
  EXPECT_NE(result.output.find("front: 4 deployment(s)"), std::string::npos);
}

TEST(Cli, SmSearchOutputIdenticalAcrossJobCounts) {
  TempDir tmp;
  const auto catalogue = write_catalogue(tmp);
  const auto serial = run(sm_search_args(catalogue) + " --pareto --jobs 1");
  const auto parallel = run(sm_search_args(catalogue) + " --pareto --jobs 4");
  EXPECT_EQ(serial.exit_code, 0) << serial.output;
  // The merge tree's shape depends only on the row count, so any job count
  // must produce byte-identical output.
  EXPECT_EQ(serial.output, parallel.output);
}

TEST(Cli, SmSearchReachesTargetAsil) {
  TempDir tmp;
  const auto catalogue = write_catalogue(tmp);
  const auto reached = run(sm_search_args(catalogue) + " --target-asil ASIL-B --optimal");
  EXPECT_EQ(reached.exit_code, 0) << reached.output;
  EXPECT_NE(reached.output.find("2 mechanism(s), 6 h total"), std::string::npos);
  EXPECT_NE(reached.output.find("ASIL-B"), std::string::npos);

  const auto unreachable = run(sm_search_args(catalogue) + " --target-asil ASIL-D");
  EXPECT_EQ(unreachable.exit_code, 3) << unreachable.output;
  EXPECT_NE(unreachable.output.find("unreachable"), std::string::npos);
}

TEST(Cli, SmSearchWritesCsvAndJson) {
  TempDir tmp;
  const auto csv_path = (tmp.path / "front.csv").string();
  const auto json_path = (tmp.path / "front.json").string();
  const auto result = run(sm_search_args(write_catalogue(tmp)) + " --pareto --out " +
                          csv_path + " --json " + json_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::ifstream csv(csv_path);
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "Cost(hrs),SPFM,ASIL,Choices,Deployment");
  std::ifstream json(json_path);
  std::string json_text((std::istreambuf_iterator<char>(json)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(json_text.find("\"front\""), std::string::npos);
  EXPECT_NE(json_text.find("\"Duplex driver\""), std::string::npos);
}

TEST(Cli, SessionParetoMatchesSmSearchCli) {
  TempDir tmp;
  const auto catalogue = write_catalogue(tmp);
  const auto cli = run(sm_search_args(catalogue) + " --pareto");
  ASSERT_EQ(cli.exit_code, 0) << cli.output;
  // The front block is everything before the trailing "front: N" summary.
  const auto cut = cli.output.find("front:");
  ASSERT_NE(cut, std::string::npos);
  const std::string front_csv = cli.output.substr(0, cut);
  EXPECT_FALSE(front_csv.empty());

  const auto script = (tmp.path / "script").string();
  {
    FILE* f = fopen(script.c_str(), "w");
    fprintf(f, "pareto %s\nquit\n", catalogue.c_str());
    fclose(f);
  }
  const auto session = run("session " + kAssets +
                           "/brake_chain.ssam --component BrakeChain < " + script);
  EXPECT_EQ(session.exit_code, 0) << session.output;
  // The session's pareto request emits the same CSV block as the CLI.
  EXPECT_NE(session.output.find(front_csv), std::string::npos);
  EXPECT_NE(session.output.find("front: 4 deployment(s)"), std::string::npos);
}

TEST(Cli, SmSearchRequiresCatalogue) {
  const auto result = run("sm-search " + kAssets +
                          "/brake_chain.ssam --component BrakeChain --pareto");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--catalogue"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Resilient campaigns: crash-safe journals, shard merging, failure
// containment (end-to-end, subprocess-level — the SIGKILL is real).
// ---------------------------------------------------------------------------

namespace {

constexpr int kSigkillExit = 137;  // what the shell reports for SIGKILL

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string fmea_args() {
  return "fmea " + kAssets + "/power_supply.mdl --reliability " + kAssets +
         "/reliability_workbook --sm-model --goals CS1,MC1";
}

/// A model whose baseline cannot solve: two ideal sources forcing different
/// voltages onto the same node. Fault tasks exist (the capacitor has
/// reliability data) but the baseline operating point does not.
std::string write_conflicting_model(const TempDir& tmp) {
  const auto path = (tmp.path / "conflict.mdl").string();
  std::ofstream out(path);
  out << "Model {\n"
         "  Name \"conflicting_sources\"\n"
         "  System {\n"
         "    Block { BlockType DCVoltageSource Name \"DC1\" Voltage \"5\" }\n"
         "    Block { BlockType DCVoltageSource Name \"DC2\" Voltage \"3\" }\n"
         "    Block { BlockType Capacitor Name \"C1\" Capacitance \"1e-6\" }\n"
         "    Block { BlockType Ground Name \"GND1\" }\n"
         "    Line { SrcBlock \"DC1\" SrcPort \"p\" DstBlock \"C1\" DstPort \"p\" }\n"
         "    Line { SrcBlock \"DC2\" SrcPort \"p\" DstBlock \"C1\" DstPort \"p\" }\n"
         "    Line { SrcBlock \"DC1\" SrcPort \"n\" DstBlock \"GND1\" DstPort \"g\" }\n"
         "    Line { SrcBlock \"DC2\" SrcPort \"n\" DstBlock \"GND1\" DstPort \"g\" }\n"
         "    Line { SrcBlock \"C1\" SrcPort \"n\" DstBlock \"GND1\" DstPort \"g\" }\n"
         "  }\n"
         "}\n";
  return path;
}

}  // namespace

TEST(Cli, JournaledRunSurvivesSigkillAndResumesByteIdentical) {
  TempDir tmp;
  const auto plain_csv = (tmp.path / "plain.csv").string();
  const auto resumed_csv = (tmp.path / "resumed.csv").string();
  const auto dead_csv = (tmp.path / "dead.csv").string();
  const auto journal = (tmp.path / "campaign.journal").string();

  const auto plain = run(fmea_args() + " --out " + plain_csv);
  ASSERT_EQ(plain.exit_code, 0) << plain.output;

  // SIGKILL mid-campaign, after the 4th checkpoint append: no CSV, but the
  // journal holds the completed prefix.
  const auto killed = run(fmea_args() + " --journal " + journal + " --out " + dead_csv,
                          "DECISIVE_CAMPAIGN_CRASH_AFTER_APPENDS=4 ");
  EXPECT_EQ(killed.exit_code, kSigkillExit);
  EXPECT_FALSE(std::filesystem::exists(dead_csv));
  ASSERT_TRUE(std::filesystem::exists(journal));

  // The resumed run replays the journal, finishes the remainder, and its
  // FMEDA is byte-identical to the uninterrupted run.
  const auto resumed = run(fmea_args() + " --journal " + journal + " --out " + resumed_csv);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  const std::string plain_bytes = slurp(plain_csv);
  ASSERT_FALSE(plain_bytes.empty());
  EXPECT_EQ(plain_bytes, slurp(resumed_csv));
}

TEST(Cli, JournalWrittenWithoutSmModelIsNotReplayedUnderOne) {
  // The journal rows carry the SM decoration, so a journal written without
  // --sm-model must not resume a --sm-model run: replaying it would report
  // the undecorated 5.38% -> ASIL-A instead of 96.77% -> ASIL-B.
  TempDir tmp;
  const auto fresh_csv = (tmp.path / "fresh.csv").string();
  const auto resumed_csv = (tmp.path / "resumed.csv").string();
  const auto journal = (tmp.path / "plain.journal").string();
  const std::string plain_args = "fmea " + kAssets + "/power_supply.mdl --reliability " +
                                 kAssets + "/reliability_workbook --goals CS1,MC1";
  ASSERT_EQ(run(plain_args + " --journal " + journal).exit_code, 0);

  const auto resumed = run(fmea_args() + " --journal " + journal + " --out " + resumed_csv);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("SPFM = 96.77%  ->  ASIL-B"), std::string::npos)
      << resumed.output;
  ASSERT_EQ(run(fmea_args() + " --out " + fresh_csv).exit_code, 0);
  const std::string fresh_bytes = slurp(fresh_csv);
  ASSERT_FALSE(fresh_bytes.empty());
  EXPECT_EQ(fresh_bytes, slurp(resumed_csv));
}

TEST(Cli, FmeaRejectsNonFiniteAndOverflowingFits) {
  // A workbook FIT that is not a finite number >= 0 never reaches an ASIL,
  // and neither does a pair of finite FITs whose sum overflows.
  TempDir tmp;
  const auto workbook = tmp.path / "workbook";
  std::filesystem::create_directories(workbook);
  std::filesystem::copy_file(kAssets + "/reliability_workbook/SafetyMechanisms.csv",
                             workbook / "SafetyMechanisms.csv");
  const auto run_with = [&](const std::string& diode_fit, const std::string& mc_fit) {
    std::ofstream(workbook / "Reliability.csv", std::ios::trunc)
        << "Component,FIT,Failure_Mode,Distribution\n"
        << "Diode," << diode_fit << ",Open,30%\n,,Short,70%\n"
        << "Capacitor,2,Open,30%\n,,Short,70%\n"
        << "Inductor,15,Open,30%\n,,Short,70%\n"
        << "MC," << mc_fit << ",RAM Failure,100%\n";
    return run("fmea " + kAssets + "/power_supply.mdl --reliability " + workbook.string() +
               " --sm-model --goals CS1,MC1");
  };
  for (const char* fit : {"nan", "inf", "-5"}) {
    const auto result = run_with("10", fit);
    EXPECT_NE(result.exit_code, 0) << fit << "\n" << result.output;
    EXPECT_NE(result.output.find("FIT of 'MC' must be a finite number >= 0"), std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("ASIL"), std::string::npos) << result.output;
  }
  const auto overflow = run_with("1e308", "1e308");
  EXPECT_NE(overflow.exit_code, 0) << overflow.output;
  EXPECT_NE(overflow.output.find("FIT sum is not finite"), std::string::npos) << overflow.output;
  EXPECT_EQ(overflow.output.find("ASIL-D"), std::string::npos) << overflow.output;
}

TEST(Cli, ShardedJournalsMergeToTheUnshardedFmeda) {
  TempDir tmp;
  const auto plain_csv = (tmp.path / "plain.csv").string();
  ASSERT_EQ(run(fmea_args() + " --out " + plain_csv).exit_code, 0);

  std::string journals;
  for (int shard = 0; shard < 3; ++shard) {
    const auto journal = (tmp.path / ("shard" + std::to_string(shard) + ".journal")).string();
    const auto result = run(fmea_args() + " --shard " + std::to_string(shard) +
                            "/3 --journal " + journal);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    journals += " " + journal;
  }

  const auto merged_csv = (tmp.path / "merged.csv").string();
  const auto merged = run("merge-journals" + journals + " --out " + merged_csv);
  EXPECT_EQ(merged.exit_code, 0) << merged.output;
  EXPECT_NE(merged.output.find("SPFM"), std::string::npos);
  const std::string plain_bytes = slurp(plain_csv);
  ASSERT_FALSE(plain_bytes.empty());
  EXPECT_EQ(plain_bytes, slurp(merged_csv));
}

TEST(Cli, MergeJournalsReportsAMissingShard) {
  TempDir tmp;
  std::string journals;
  for (int shard = 0; shard < 3; ++shard) {
    if (shard == 1) continue;  // shard 1 never ran
    const auto journal = (tmp.path / ("shard" + std::to_string(shard) + ".journal")).string();
    ASSERT_EQ(run(fmea_args() + " --shard " + std::to_string(shard) + "/3 --journal " +
                  journal).exit_code, 0);
    journals += " " + journal;
  }
  const auto merged = run("merge-journals" + journals);
  EXPECT_EQ(merged.exit_code, 1) << merged.output;
  EXPECT_NE(merged.output.find("shard 1/3 has no journal"), std::string::npos);
}

TEST(Cli, UnanalysableBaselineExitsFourAndBestEffortDegrades) {
  TempDir tmp;
  const auto model = write_conflicting_model(tmp);
  const std::string base = "fmea " + model + " --reliability " + kAssets +
                           "/reliability_workbook";

  const auto strict = run(base);
  EXPECT_EQ(strict.exit_code, 4) << strict.output;
  EXPECT_NE(strict.output.find("baseline"), std::string::npos);
  EXPECT_NE(strict.output.find("--best-effort"), std::string::npos);

  const auto degraded = run(base + " --best-effort");
  EXPECT_EQ(degraded.exit_code, 0) << degraded.output;
  EXPECT_NE(degraded.output.find("best-effort"), std::string::npos);
  EXPECT_NE(degraded.output.find("NotApplicable"), std::string::npos);
}

TEST(Cli, InterruptedCacheSaveLeavesThePreviousCacheIntact) {
  TempDir tmp;
  const auto cache = (tmp.path / "session.cache").string();
  const auto script = (tmp.path / "script").string();
  const std::string session_args =
      "session " + kAssets + "/brake_chain.ssam --component BrakeChain < " + script;

  {
    std::ofstream out(script);
    out << "reanalyze\nsave-cache " << cache << "\nquit\n";
  }
  ASSERT_EQ(run(session_args).exit_code, 0);
  const std::string original = slurp(cache);
  ASSERT_FALSE(original.empty());

  // A save that dies between writing the temp file and the rename must leave
  // the previous cache untouched — the window where a straight-through write
  // would already have truncated it.
  {
    std::ofstream out(script);
    out << "reanalyze\nset-fit Sensor 120\nreanalyze\nsave-cache " << cache << "\nquit\n";
  }
  const auto killed = run(session_args, "DECISIVE_CRASH_BEFORE_RENAME=1 ");
  EXPECT_EQ(killed.exit_code, kSigkillExit);
  EXPECT_EQ(slurp(cache), original);

  // And the surviving cache still loads cleanly.
  {
    std::ofstream out(script);
    out << "load-cache " << cache << "\nquit\n";
  }
  const auto reload = run(session_args);
  EXPECT_EQ(reload.exit_code, 0) << reload.output;
  EXPECT_NE(reload.output.find("cache"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder: heartbeats + status, cross-shard metrics/trace merging
// (end-to-end: 4 real shard processes, one real SIGKILL).
// ---------------------------------------------------------------------------

namespace {

/// The per-task campaign counters that must fold exactly across shards.
/// Process-scoped counters (runs_total, the baseline solver counters) run
/// once per shard process and legitimately differ; these do not.
const std::vector<std::string> kPerTaskCounters = {
    "decisive_campaign_tasks_total",
    "decisive_campaign_journal_appends_total",
    "decisive_campaign_outcome_converged_total",
    "decisive_campaign_outcome_recovered_total",
    "decisive_campaign_outcome_singular_total",
    "decisive_campaign_outcome_budget_exhausted_total",
    "decisive_campaign_outcome_not_applicable_total",
    "decisive_campaign_outcome_crashed_total",
};

}  // namespace

TEST(Cli, ShardedFlightRecorderFoldsToTheUnshardedArtefacts) {
  TempDir tmp;
  const auto shard_dir = tmp.path / "shards";
  std::filesystem::create_directories(shard_dir);

  // Unsharded reference run (journaled, so journal_appends is comparable).
  const auto whole_metrics = (tmp.path / "whole.metrics.json").string();
  ASSERT_EQ(run(fmea_args() + " --journal " + (tmp.path / "whole.journal").string() +
                " --metrics-json " + whole_metrics).exit_code, 0);

  std::string metric_files;
  std::string trace_files;
  for (int shard = 0; shard < 4; ++shard) {
    const auto stem = (shard_dir / ("shard" + std::to_string(shard))).string();
    const auto result = run(fmea_args() + " --shard " + std::to_string(shard) +
                            "/4 --journal " + stem + ".journal --metrics-json " + stem +
                            ".metrics.json --trace " + stem + ".trace.json");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    metric_files += " " + stem + ".metrics.json";
    trace_files += " " + stem + ".trace.json";
  }

  // One live view over the four heartbeat files: everything finished.
  const auto status = run("status " + shard_dir.string());
  EXPECT_EQ(status.exit_code, 0) << status.output;
  EXPECT_NE(status.output.find("0 running, 4 done, 0 dead"), std::string::npos)
      << status.output;
  EXPECT_NE(status.output.find("9/9 tasks"), std::string::npos) << status.output;

  // Merged metrics: the per-task campaign counters are byte-identical to the
  // unsharded snapshot's.
  const auto merged_metrics = (tmp.path / "merged.metrics.json").string();
  const auto merge = run("merge-metrics" + metric_files + " --out " + merged_metrics);
  ASSERT_EQ(merge.exit_code, 0) << merge.output;
  const decisive::json::Value merged_doc =
      decisive::obs::parse_registry_snapshot(slurp(merged_metrics));
  const decisive::json::Value whole_doc =
      decisive::obs::parse_registry_snapshot(slurp(whole_metrics));
  const auto& merged_counters = merged_doc.as_object().at("counters").as_object();
  const auto& whole_counters = whole_doc.as_object().at("counters").as_object();
  for (const std::string& name : kPerTaskCounters) {
    ASSERT_TRUE(merged_counters.count(name)) << name;
    ASSERT_TRUE(whole_counters.count(name)) << name;
    EXPECT_EQ(decisive::json::write(merged_counters.at(name)),
              decisive::json::write(whole_counters.at(name)))
        << name;
  }

  // Merged trace: one document, one process lane per shard, still valid.
  const auto merged_trace = (tmp.path / "merged.trace.json").string();
  const auto trace_merge = run("merge-traces" + trace_files + " --out " + merged_trace);
  ASSERT_EQ(trace_merge.exit_code, 0) << trace_merge.output;
  const auto check = run("check-trace " + merged_trace);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_NE(check.output.find("well-formed"), std::string::npos);
}

TEST(Cli, StatusFlagsASigkilledShardDeadWhileOthersFinish) {
  TempDir tmp;
  const auto dir = tmp.path / "dead";
  std::filesystem::create_directories(dir);

  auto shard_args = [&](int shard) {
    const auto stem = (dir / ("shard" + std::to_string(shard))).string();
    return fmea_args() + " --shard " + std::to_string(shard) + "/4 --journal " + stem +
           ".journal";
  };

  ASSERT_EQ(run(shard_args(0)).exit_code, 0);
  // Shard 1 is SIGKILLed after its first journal append: its heartbeat file
  // survives in state "running" and simply stops refreshing.
  const auto killed = run(shard_args(1), "DECISIVE_CAMPAIGN_CRASH_AFTER_APPENDS=1 ");
  EXPECT_EQ(killed.exit_code, kSigkillExit);
  ASSERT_TRUE(std::filesystem::exists(dir / "shard1.journal.heartbeat.json"));
  ASSERT_EQ(run(shard_args(2)).exit_code, 0);
  ASSERT_EQ(run(shard_args(3)).exit_code, 0);

  // Let the dead shard's heartbeat go stale past the threshold; the finished
  // shards stay "done" forever regardless of age.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto status = run("status " + dir.string() + " --stale-seconds 0.05");
  EXPECT_EQ(status.exit_code, 3) << status.output;
  EXPECT_NE(status.output.find("DEAD"), std::string::npos) << status.output;
  EXPECT_NE(status.output.find("shard 1/4"), std::string::npos) << status.output;
  EXPECT_NE(status.output.find("3 done, 1 dead"), std::string::npos) << status.output;
}

// ---------------------------------------------------------------------------
// Front-end argument checks: a valueless value flag, a negative count or a
// bad mission time is rejected before any analysis runs and writes nothing.
// ---------------------------------------------------------------------------

namespace {

/// Runs the CLI with `dir` as its working directory, so a test can check
/// that a rejected command left no file behind.
RunResult run_in(const std::filesystem::path& dir, const std::string& arguments) {
  return run(arguments, "cd '" + dir.string() + "' && ");
}

bool is_empty_dir(const std::filesystem::path& dir) {
  return std::filesystem::directory_iterator(dir) == std::filesystem::directory_iterator();
}

const std::string kBrake = kAssets + "/brake_chain.ssam --component BrakeChain";

}  // namespace

TEST(CliArguments, ValuelessOutIsAUsageErrorAndWritesNoFile) {
  TempDir tmp;
  const auto result = run_in(tmp.path, "graph-fmea " + kBrake + " --out");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--out requires a value"), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find("FMEDA written"), std::string::npos) << result.output;
  EXPECT_TRUE(is_empty_dir(tmp.path));
}

TEST(CliArguments, ValuelessReliabilityIsAUsageError) {
  TempDir tmp;
  const auto result =
      run_in(tmp.path, "fmea " + kAssets + "/power_supply.mdl --out fmeda.csv --reliability");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--reliability requires a value"), std::string::npos)
      << result.output;
  EXPECT_TRUE(is_empty_dir(tmp.path));
}

TEST(CliArguments, NegativeMaxOrderIsAUsageError) {
  TempDir tmp;
  const auto result = run_in(tmp.path, "fta " + kBrake + " --max-order -1 --out cuts.csv");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--max-order must be >= 0"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("P(top event"), std::string::npos) << result.output;
  EXPECT_TRUE(is_empty_dir(tmp.path));
}

TEST(CliArguments, NegativeScalabilityCountFailsFast) {
  const auto start = std::chrono::steady_clock::now();
  const auto result = run("scalability -1");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("must be >= 0"), std::string::npos) << result.output;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(CliArguments, NegativeJobsKeepsItsMessageOnEveryCommand) {
  TempDir tmp;
  const std::string catalogue = kAssets + "/reliability_workbook";
  for (const std::string& command :
       {"fmea " + kAssets + "/power_supply.mdl --reliability " + catalogue + " --out f.csv",
        "graph-fmea " + kBrake + " --out f.csv",
        "sm-search " + kBrake + " --catalogue " + catalogue + " --out f.csv",
        "session " + kBrake + " < /dev/null"}) {
    const auto result = run_in(tmp.path, command + " --jobs -1");
    EXPECT_EQ(result.exit_code, 2) << command << "\n" << result.output;
    EXPECT_NE(result.output.find("error: --jobs must be >= 0 (0 = all cores)"),
              std::string::npos)
        << command << "\n" << result.output;
  }
  EXPECT_TRUE(is_empty_dir(tmp.path));
}

TEST(CliArguments, CountsBeyondIntAreUsageErrors) {
  // 2^32 + 1 used to truncate to one worker through static_cast<int>.
  const auto result = run("graph-fmea " + kBrake + " --jobs 4294967297");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--jobs must be <= 2147483647"), std::string::npos)
      << result.output;
}

TEST(CliArguments, NegativeMissionHoursPrintsNoProbability) {
  TempDir tmp;
  const auto result =
      run_in(tmp.path, "fta " + kBrake + " --mission-hours -5000 --out cuts.csv");
  EXPECT_NE(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("mission time"), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find("P(top event"), std::string::npos) << result.output;
  EXPECT_TRUE(is_empty_dir(tmp.path));
}

TEST(CliArguments, SessionFtaRejectsBadArguments) {
  TempDir tmp;
  const auto script = (tmp.path / "script.txt").string();
  {
    std::ofstream out(script);
    out << "fta -5000\nfta 1000 -2\nquit\n";
  }
  const auto result = run("session " + kBrake + " < " + script);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("error: analysis error: mission time"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("error: parse error: expected a count >= 0, got '-2'"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("cut-sets"), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find(" exact "), std::string::npos) << result.output;
}

TEST(CliArguments, TargetAsilWithLfmObjectiveIsRejectedUpFront) {
  // brake_chain has no multi-point faults: the LFM early return used to
  // exit 0 before the conflict was ever checked.
  TempDir tmp;
  const auto result = run("sm-search " + kBrake + " --catalogue " + kAssets +
                          "/reliability_workbook --target-asil B --objective lfm");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--objective lfm applies to the Pareto front only"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("no multi-point faults"), std::string::npos) << result.output;
}

TEST(CliArguments, DirectoryInputsAreIoErrors) {
  TempDir tmp;
  const std::string dir = tmp.path.string();
  for (const std::string& command :
       {"validate " + dir, "check-trace " + dir,
        "fmea " + dir + " --reliability " + kAssets + "/reliability_workbook"}) {
    const auto result = run(command);
    EXPECT_EQ(result.exit_code, 1) << command << "\n" << result.output;
    EXPECT_NE(result.output.find("io error: cannot read"), std::string::npos)
        << command << "\n" << result.output;
    EXPECT_NE(result.output.find("'" + dir + "': is a directory"), std::string::npos)
        << command << "\n" << result.output;
  }
}
