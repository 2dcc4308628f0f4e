// same — the Safety Analysis Management Environment, headless.
//
// Subcommands (see `same help`):
//   fmea        automated FME(D)A on a Simulink-substitute (.mdl) model
//   merge-journals  fold the per-shard journals of one campaign into one FMEDA
//   graph-fmea  Algorithm-1 FMEA on an SSAM architecture model
//   sm-search   safety-mechanism deployment search: Pareto front / target ASIL
//   import      transform a .mdl model into SSAM (XMI) with a loss audit
//   export      regenerate the .mdl from an imported SSAM model
//   assurance   evaluate a model-based assurance case (.xml)
//   query       run a query script against any supported external model
//   scalability evaluate a synthetic model with both repository back-ends
//   impact      change-impact report for one component (ISO 26262 Part 8)
//   session     long-lived incremental-analysis service (line protocol)
//   check-trace validate a Chrome trace-event file produced by --trace
//   status      fold per-shard heartbeat files into one live progress view
//   merge-metrics  fold per-shard registry snapshots into one snapshot
//   merge-traces   fold per-shard Chrome traces into one trace
//
// Global flags: --trace <out.json> (Chrome trace of every engine span),
// --metrics [<file>] (Prometheus dump of the instrumentation registry) and
// --metrics-json <file> (shard-stamped registry snapshot, mergeable with
// `same merge-metrics`).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "decisive/assurance/case.hpp"
#include "decisive/assurance/evaluate.hpp"
#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/base/xml.hpp"
#include "decisive/core/campaign_journal.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/core/fta.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/impact.hpp"
#include "decisive/core/monitor.hpp"
#include "decisive/core/sm_search.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/fta/lfm.hpp"
#include "decisive/fta/quantify.hpp"
#include "decisive/obs/progress.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/snapshot.hpp"
#include "decisive/obs/trace.hpp"
#include "decisive/session/service.hpp"
#include "decisive/ssam/validate.hpp"
#include "decisive/drivers/datasource.hpp"
#include "decisive/drivers/mdl.hpp"
#include "decisive/model/xmi.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/transform/simulink.hpp"

using namespace decisive;

namespace {

/// Tiny flag parser: positionals plus --key value / --switch.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = options.find(key);
    return it == options.end() ? std::nullopt : std::optional(it->second);
  }
  [[nodiscard]] bool has(const std::string& key) const { return options.contains(key); }
};

Args parse_args(int argc, char** argv, int start) {
  Args args;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--")) {
      const std::string key = arg.substr(2);
      if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "true";
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int usage() {
  std::printf(
      "same — Safety Analysis Management Environment (headless)\n\n"
      "usage:\n"
      "  same fmea <model.mdl> --reliability <workbook-dir> [--sm-model]\n"
      "            [--goals CS1,MC1] [--threshold 0.2] [--out fmeda.csv]\n"
      "            [--jobs N] [--journal <file>] [--shard i/N]\n"
      "            [--retries N] [--best-effort] [--no-sparse]\n"
      "            [--heartbeat <file>] [--heartbeat-interval S]\n"
      "      Automated fault-injection FME(D)A (DECISIVE steps 3-4).\n"
      "      --sm-model deploys safety mechanisms from the workbook's\n"
      "      SafetyMechanisms sheet (step 4b). --jobs runs the campaign on\n"
      "      N worker threads (0 = all cores); output is byte-identical\n"
      "      for any job count.\n"
      "      Resilience: --journal checkpoints every completed fault to a\n"
      "      crash-safe append-only journal — re-running the same command\n"
      "      after a crash resumes from it, byte-identical to an\n"
      "      uninterrupted run. --shard i/N executes only shard i of a\n"
      "      deterministic N-way partition (use one journal per shard and\n"
      "      `same merge-journals` to fold them together). --retries bounds\n"
      "      the containment retries of crashed/budget-exhausted faults\n"
      "      (default 1). --best-effort degrades an unanalysable baseline\n"
      "      to an all-NotApplicable table instead of exit 4.\n"
      "      The campaign analyses the nominal system's stamp pattern once\n"
      "      and refactors every fault's numbers through it; --no-sparse\n"
      "      pins every solve to the dense kernel (byte-identical output,\n"
      "      escape hatch only).\n"
      "      Flight recorder: a progress heartbeat JSON is published next\n"
      "      to the journal (or at --heartbeat) and refreshed at most every\n"
      "      --heartbeat-interval seconds (default 1); watch it live with\n"
      "      `same status`.\n\n"
      "  same merge-journals <shard0.journal> <shard1.journal> ...\n"
      "            [--out fmeda.csv]\n"
      "      Merge the per-shard campaign journals of one sharded campaign\n"
      "      into the FMEDA an unsharded run would have produced (exit 1 if\n"
      "      a shard is missing or incomplete — resume it first).\n\n"
      "  same import <model.mdl> --out <design.ssam>\n"
      "      Simulink -> SSAM transformation with an information-loss audit.\n\n"
      "  same export <design.ssam> --out <model.mdl>\n"
      "      Regenerate the original model from an imported SSAM file.\n\n"
      "  same assurance <case.xml>\n"
      "      Evaluate a model-based assurance case (executes artifact queries).\n\n"
      "  same query <external-model> <script>\n"
      "      Run a query against a CSV/workbook/JSON/XML/MDL model.\n\n"
      "  same scalability <elements> [--budget-mib 4096]\n"
      "      Evaluate a synthetic model with the full-load and indexed\n"
      "      repositories (the paper's Table VI experiment).\n\n"
      "  same validate <design.ssam>\n"
      "      Structural well-formedness validation of an SSAM model.\n\n"
      "  same graph-fmea <design.ssam> --component <name> [--jobs N]\n"
      "            [--out fmeda.csv] [--heartbeat <file>]\n"
      "      Algorithm-1 FMEA on an SSAM architecture: dominator-based\n"
      "      single-point analysis over the component graph, recursing into\n"
      "      composites. --jobs parallelises the per-component analyses\n"
      "      (0 = all cores); output is byte-identical for any job count.\n\n"
      "  same sm-search <design.ssam> --component <name> --catalogue <path>\n"
      "            [--target-asil B [--optimal]] [--pareto] [--jobs N]\n"
      "            [--epsilon E] [--objective spfm|lfm]\n"
      "            [--out front.csv] [--json front.json]\n"
      "      Safety-mechanism deployment search (DECISIVE step 4b) on the\n"
      "      graph FMEA of <name>. Default/--pareto: the exact (cost, SPFM)\n"
      "      Pareto front via the DP engine (byte-identical for any --jobs;\n"
      "      --epsilon trades exactness for a bounded front). --target-asil:\n"
      "      a min-cost deployment reaching the target (greedy, or provably\n"
      "      optimal branch-and-bound with --optimal; exit 3 = unreachable).\n"
      "      --objective lfm weights the front's metric axis by the FTA's\n"
      "      multi-point rows (latent-fault exposure) instead of the SPFM.\n"
      "      --catalogue accepts a CSV file or a workbook directory with a\n"
      "      SafetyMechanisms sheet.\n\n"
      "  same fta <design.ssam> --component <name> [--mission-hours 10000]\n"
      "            [--max-order K] [--out cutsets.csv]\n"
      "      Synthesise the fault tree of a composite component with the\n"
      "      ZBDD engine: minimal cut sets (any order; --max-order bounds\n"
      "      them, with an explicit truncation warning), exact top-event\n"
      "      probability next to the rare-event bound, Birnbaum / \n"
      "      Fussell-Vesely / RAW / RRW importance, and the ISO 26262\n"
      "      latent/multi-point (LFM) classification against the FMEDA.\n\n"
      "  same monitor <design.ssam> [--samples frames.csv] [--include-static]\n"
      "      Generate the runtime monitor from dynamic components; with\n"
      "      --samples, replay a CSV of frames (columns = check ids) through\n"
      "      it and report the violations.\n\n"
      "  same impact <design.ssam> <component>\n"
      "      Change-impact report for one component: the containment\n"
      "      ancestors, connected neighbours, requirements and hazards a\n"
      "      change to it can invalidate (ISO 26262 Part 8 change management).\n\n"
      "  same session [--model <design.ssam> --component <name>] [--jobs N]\n"
      "            [--cache <file>]\n"
      "      Long-lived incremental-analysis service: reads one request per\n"
      "      line from stdin (load / set-fit / rewire / add-failure-mode /\n"
      "      deploy-sm / impact / campaign / reanalyze / table / result /\n"
      "      metrics / stats / save / save-cache / load-cache / quit; 'help'\n"
      "      lists them). Re-analyses replay fingerprint-cached per-component\n"
      "      results and report the hit rate, dirty-set size and per-phase\n"
      "      wall time; 'metrics' answers a Prometheus-style dump of the\n"
      "      process-wide instrumentation registry.\n\n"
      "  same check-trace <trace.json>\n"
      "      Validate a Chrome trace-event file: JSON well-formedness,\n"
      "      monotonic timestamps and balanced begin/end pairs per\n"
      "      (process, thread) lane — merged multi-shard traces included.\n\n"
      "  same status <dir-or-heartbeat.json> [--stale-seconds S]\n"
      "      Fold every *.heartbeat.json under <dir> into one live progress\n"
      "      view: done/total, per-outcome counts, throughput, ETA and\n"
      "      worker liveness per shard. A shard still 'running' whose\n"
      "      heartbeat is older than S seconds (default 30) is flagged DEAD\n"
      "      (exit 3); exit 1 when no heartbeat is found.\n\n"
      "  same merge-metrics <shard0.json> <shard1.json> ... [--out <file>]\n"
      "      Fold per-shard registry snapshots (--metrics-json) into one:\n"
      "      counters summed, gauges last-write-by-timestamp, histograms\n"
      "      added bucket-wise (a bucket-layout mismatch is an error).\n\n"
      "  same merge-traces <shard0.json> <shard1.json> ... [--out <file>]\n"
      "      Fold per-shard Chrome traces into one, each shard on its own\n"
      "      process lane; the merge passes `same check-trace`.\n\n"
      "global flags (any subcommand):\n"
      "  --trace <out.json>   record spans of every engine to a Chrome\n"
      "                       trace-event file (open in about://tracing or\n"
      "                       https://ui.perfetto.dev). Analysis artefacts\n"
      "                       are byte-identical with or without tracing.\n"
      "  --metrics [<file>]   after the command, dump the instrumentation\n"
      "                       registry in Prometheus text format to <file>\n"
      "                       (stderr when no file is given).\n"
      "  --metrics-json <file>  after the command, write the registry as a\n"
      "                       shard-stamped JSON snapshot, mergeable across\n"
      "                       shards with `same merge-metrics`.\n"
      "\n"
      "  `same campaign` is an alias for `same fmea` (the fault-injection\n"
      "  campaign engine).\n");
  return 2;
}

int cmd_monitor(const Args& args) {
  if (args.positional.empty()) return usage();
  ssam::SsamModel model;
  model::load_xmi_file(model.repo(), model.meta(), args.positional[0]);
  auto monitor = core::RuntimeMonitor::generate_all(model, args.has("include-static"));
  std::printf("%s", monitor.to_text().c_str());
  if (monitor.checks().empty()) {
    // A valid model with nothing to monitor is a clean outcome, not a
    // failure: only violations (3) and errors (1/2) are non-zero.
    std::printf("note: no dynamic components; nothing to monitor\n");
    return 0;
  }

  const auto samples = args.get("samples");
  if (!samples.has_value()) return 0;
  const CsvTable frames = read_csv_file(*samples);
  size_t violations = 0;
  for (size_t row = 0; row < frames.rows.size(); ++row) {
    std::map<std::string, double> frame;
    for (size_t col = 0; col < frames.header.size(); ++col) {
      const std::string& cell = frames.rows[row].size() > col ? frames.rows[row][col] : "";
      if (trim(cell).empty()) continue;
      frame[frames.header[col]] = parse_double(cell);
    }
    for (const auto& violation : monitor.feed_frame(frame)) {
      ++violations;
      std::printf("frame %zu: %s = %s %s bound %s\n", row, violation.check_id.c_str(),
                  format_number(violation.value, 6).c_str(),
                  violation.below_lower ? "below" : "above",
                  format_number(violation.bound, 6).c_str());
    }
  }
  std::printf("%zu frame(s), %zu violation(s)\n", frames.rows.size(), violations);
  return violations == 0 ? 0 : 3;
}

int cmd_validate(const Args& args) {
  if (args.positional.empty()) return usage();
  ssam::SsamModel model;
  model::load_xmi_file(model.repo(), model.meta(), args.positional[0]);
  const auto findings = ssam::validate(model);
  std::printf("%s", ssam::to_text(model, findings).c_str());
  return findings.empty() ? 0 : 1;
}

int cmd_fta(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto component_name = args.get("component");
  if (!component_name.has_value()) {
    std::fprintf(stderr, "error: --component <name> is required\n");
    return 2;
  }
  ssam::SsamModel model;
  model::load_xmi_file(model.repo(), model.meta(), args.positional[0]);
  const auto component = model.find_by_name(ssam::cls::Component, *component_name);
  if (component == model::kNullObject) {
    std::fprintf(stderr, "error: no component named '%s'\n", component_name->c_str());
    return 1;
  }
  const double mission = parse_double(args.get("mission-hours").value_or("10000"));
  fta::ZbddFtaOptions options;
  if (const auto max_order = args.get("max-order")) {
    options.max_order = static_cast<size_t>(parse_int(*max_order));
  }

  const auto tree = fta::synthesize_fault_tree_zbdd(model, component, options);
  std::printf("%s\n", tree.to_text().c_str());
  std::printf("minimal cut sets: %zu\n", tree.cut_sets.size());

  const auto quant = fta::quantify(tree, mission);
  std::printf("P(top event | %.0f h) = %.3e exact  (rare-event bound %.3e)\n\n", mission,
              quant.exact_probability, quant.rare_event_bound);
  std::printf("%-40s %12s %14s %8s %10s\n", "basic event", "Birnbaum",
              "Fussell-Vesely", "RAW", "RRW");
  for (const auto& imp : quant.importance) {
    std::printf("%-40s %12.4e %14.4f %8.3f %10s\n", imp.label.c_str(), imp.birnbaum,
                imp.fussell_vesely, imp.raw,
                imp.indispensable ? "inf" : format_number(imp.rrw, 3).c_str());
  }

  // Federation with the FMEDA: multi-point/latent classification (ISO 26262
  // LFM) of every loss mode against the minimal cut sets.
  const auto fmea = core::analyze_component(model, component, {});
  const auto lfm = fta::classify_latent(model, tree, fmea);
  std::printf("\n%s", lfm.to_text().c_str());

  if (const auto out = args.get("out")) {
    write_csv_file(*out, fta::cut_sets_csv(tree, mission));
    std::printf("cut sets written to %s\n", out->c_str());
  }
  return 0;
}

int cmd_graph_fmea(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto component_name = args.get("component");
  if (!component_name.has_value()) {
    std::fprintf(stderr, "error: --component <name> is required\n");
    return 2;
  }
  ssam::SsamModel model;
  model::load_xmi_file(model.repo(), model.meta(), args.positional[0]);
  const auto component = model.find_by_name(ssam::cls::Component, *component_name);
  if (component == model::kNullObject) {
    std::fprintf(stderr, "error: no component named '%s'\n", component_name->c_str());
    return 1;
  }

  core::GraphFmeaOptions options;
  if (const auto jobs = args.get("jobs")) {
    options.jobs = static_cast<int>(parse_int(*jobs));
    if (options.jobs < 0) {
      std::fprintf(stderr, "error: --jobs must be >= 0 (0 = all cores)\n");
      return 2;
    }
  }
  if (const auto heartbeat = args.get("heartbeat")) {
    if (*heartbeat == "true") {
      std::fprintf(stderr, "error: --heartbeat requires a file path\n");
      return 2;
    }
    options.heartbeat_path = *heartbeat;
  }
  if (const auto interval = args.get("heartbeat-interval")) {
    options.heartbeat_interval_seconds = parse_double(*interval);
  }

  const auto result = core::analyze_component(model, component, options);
  std::printf("%s\n", result.to_text().render().c_str());
  for (const auto& warning : result.warnings) std::printf("note: %s\n", warning.c_str());
  std::printf("\nSPFM = %s  ->  %s\n", format_percent(result.spfm()).c_str(),
              result.asil_label().c_str());
  if (const auto out = args.get("out")) {
    write_csv_file(*out, result.to_csv());
    std::printf("FMEDA written to %s\n", out->c_str());
  }
  return 0;
}

/// Loads a safety-mechanism catalogue from any tabular source: a workbook
/// directory with a SafetyMechanisms sheet, or a bare CSV file (whose single
/// table answers to the empty name regardless of the file stem).
core::SafetyMechanismModel load_catalogue(const std::string& location) {
  const auto source = drivers::DriverRegistry::global().open(location);
  const std::string_view table =
      source->table("SafetyMechanisms") != nullptr ? "SafetyMechanisms" : "";
  return core::SafetyMechanismModel::from_source(*source, table);
}

int cmd_sm_search(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto component_name = args.get("component");
  if (!component_name.has_value()) {
    std::fprintf(stderr, "error: --component <name> is required\n");
    return 2;
  }
  const auto catalogue_location = args.get("catalogue");
  if (!catalogue_location.has_value()) {
    std::fprintf(stderr, "error: --catalogue <csv-or-workbook> is required\n");
    return 2;
  }

  ssam::SsamModel model;
  model::load_xmi_file(model.repo(), model.meta(), args.positional[0]);
  const auto component = model.find_by_name(ssam::cls::Component, *component_name);
  if (component == model::kNullObject) {
    std::fprintf(stderr, "error: no component named '%s'\n", component_name->c_str());
    return 1;
  }
  const auto fmea = core::analyze_component(model, component, {});
  const auto catalogue = load_catalogue(*catalogue_location);

  // --objective lfm: weight the Pareto metric axis by the FTA's multi-point
  // rows, so the front trades cost against latent-fault exposure instead of
  // the single-point SPFM.
  const std::string objective = to_lower(args.get("objective").value_or("spfm"));
  if (objective != "spfm" && objective != "lfm") {
    std::fprintf(stderr, "error: --objective must be 'spfm' or 'lfm'\n");
    return 2;
  }
  std::vector<double> lfm_weights;
  if (objective == "lfm") {
    const auto tree = fta::synthesize_fault_tree_zbdd(model, component);
    const auto lfm = fta::classify_latent(model, tree, fmea);
    if (!lfm.has_multi_point()) {
      std::printf("no multi-point faults: the LFM objective has nothing to optimise\n");
      return 0;
    }
    lfm_weights = fta::lfm_row_weights(lfm);
  }

  if (const auto target = args.get("target-asil")) {
    if (objective == "lfm") {
      std::fprintf(stderr,
                   "error: --objective lfm applies to the Pareto front only "
                   "(drop --target-asil)\n");
      return 2;
    }
    // Min-cost deployment for one target: greedy by default, provably
    // optimal branch-and-bound with --optimal.
    const auto deployment = args.has("optimal")
                                ? core::optimal_reach_asil(fmea, catalogue, *target)
                                : core::greedy_reach_asil(fmea, catalogue, *target);
    if (!deployment.has_value()) {
      std::printf("target ASIL %s is unreachable with this catalogue\n", target->c_str());
      return 3;
    }
    for (const auto& choice : deployment->choices) {
      const core::FmedaRow& row = fmea.rows[choice.row_index];
      std::printf("deploy %s on %s/%s (coverage %s, %s h)\n",
                  choice.mechanism->name.c_str(), row.component.c_str(),
                  row.failure_mode.c_str(),
                  format_percent(choice.mechanism->coverage).c_str(),
                  format_number(choice.mechanism->cost_hours, 2).c_str());
    }
    std::printf("%zu mechanism(s), %s h total\n", deployment->choices.size(),
                format_number(deployment->total_cost_hours, 2).c_str());
    std::printf("SPFM %s -> %s  ->  SPFM %s -> %s\n", format_percent(fmea.spfm()).c_str(),
                fmea.asil_label().c_str(), format_percent(deployment->spfm).c_str(),
                core::achieved_asil(deployment->spfm).c_str());
    if (const auto out = args.get("out")) {
      write_csv_file(*out, core::front_to_csv(fmea, {*deployment}));
      std::printf("deployment written to %s\n", out->c_str());
    }
    if (const auto json_out = args.get("json")) {
      std::ofstream file(*json_out, std::ios::binary);
      if (!file) throw IoError("cannot write '" + *json_out + "'");
      file << core::front_to_json(fmea, {*deployment});
      std::printf("deployment written to %s\n", json_out->c_str());
    }
    return 0;
  }

  // Default (and --pareto): the exact (cost, SPFM) Pareto front.
  core::ParetoOptions options;
  if (const auto jobs = args.get("jobs")) {
    options.jobs = static_cast<int>(parse_int(*jobs));
    if (options.jobs < 0) {
      std::fprintf(stderr, "error: --jobs must be >= 0 (0 = all cores)\n");
      return 2;
    }
  }
  if (const auto epsilon = args.get("epsilon")) options.epsilon = parse_double(*epsilon);
  options.row_weights = lfm_weights;
  const auto front = core::pareto_front(fmea, catalogue, options);
  const CsvTable table = core::front_to_csv(
      fmea, front,
      objective == "lfm" ? core::ParetoMetric::Lfm : core::ParetoMetric::Spfm);
  std::printf("%s", write_csv(table).c_str());
  std::printf("front: %zu deployment(s)\n", front.size());
  if (const auto out = args.get("out")) {
    write_csv_file(*out, table);
    std::printf("front written to %s\n", out->c_str());
  }
  if (const auto json_out = args.get("json")) {
    std::ofstream file(*json_out, std::ios::binary);
    if (!file) throw IoError("cannot write '" + *json_out + "'");
    file << core::front_to_json(fmea, front);
    std::printf("front written to %s\n", json_out->c_str());
  }
  return 0;
}

int cmd_fmea(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto reliability_location = args.get("reliability");
  if (!reliability_location.has_value()) {
    std::fprintf(stderr, "error: --reliability <workbook-dir> is required\n");
    return 2;
  }

  const auto mdl = drivers::parse_mdl_file(args.positional[0]);
  const auto built = sim::build_circuit(mdl);
  const auto workbook = drivers::DriverRegistry::global().open(*reliability_location);
  const auto reliability = core::ReliabilityModel::from_source(*workbook, "Reliability");

  std::optional<core::SafetyMechanismModel> sm_model;
  if (args.has("sm-model")) {
    sm_model = core::SafetyMechanismModel::from_source(*workbook, "SafetyMechanisms");
  }

  core::CircuitFmeaOptions options;
  if (const auto goals = args.get("goals")) {
    for (const auto& goal : split(*goals, ',')) {
      options.safety_goal_observables.push_back(std::string(trim(goal)));
    }
  }
  if (const auto threshold = args.get("threshold")) {
    options.relative_threshold = parse_double(*threshold);
  }
  if (const auto jobs = args.get("jobs")) {
    options.jobs = static_cast<int>(parse_int(*jobs));
    if (options.jobs < 0) {
      std::fprintf(stderr, "error: --jobs must be >= 0 (0 = all cores)\n");
      return 2;
    }
  }
  if (const auto journal = args.get("journal")) {
    if (*journal == "true") {
      std::fprintf(stderr, "error: --journal requires a file path\n");
      return 2;
    }
    options.execution.journal_path = *journal;
  }
  if (const auto shard = args.get("shard")) {
    const auto slash = shard->find('/');
    if (slash == std::string::npos) {
      std::fprintf(stderr, "error: --shard expects i/N (e.g. --shard 0/4)\n");
      return 2;
    }
    options.execution.shard_index = static_cast<int>(parse_int(shard->substr(0, slash)));
    options.execution.shard_count = static_cast<int>(parse_int(shard->substr(slash + 1)));
    if (options.execution.shard_count < 1 || options.execution.shard_index < 0 ||
        options.execution.shard_index >= options.execution.shard_count) {
      std::fprintf(stderr, "error: --shard i/N needs 0 <= i < N\n");
      return 2;
    }
  }
  if (const auto retries = args.get("retries")) {
    options.execution.max_retries = static_cast<int>(parse_int(*retries));
    if (options.execution.max_retries < 0) {
      std::fprintf(stderr, "error: --retries must be >= 0\n");
      return 2;
    }
  }
  options.execution.best_effort = args.has("best-effort");
  options.sparse = !args.has("no-sparse");
  options.solver.sparse = options.sparse;
  if (const auto heartbeat = args.get("heartbeat")) {
    if (*heartbeat == "true") {
      std::fprintf(stderr, "error: --heartbeat requires a file path\n");
      return 2;
    }
    options.execution.heartbeat_path = *heartbeat;
  }
  if (const auto interval = args.get("heartbeat-interval")) {
    options.execution.heartbeat_interval_seconds = parse_double(*interval);
  }

  core::FmedaResult result;
  try {
    result = core::analyze_circuit(built, reliability, sm_model ? &*sm_model : nullptr,
                                   options);
  } catch (const SimulationError& error) {
    // The *baseline* is unanalysable — per-fault failures never throw, they
    // are classified FaultOutcomes on the rows. Report it structurally
    // instead of letting the generic handler print a bare message.
    std::fprintf(stderr,
                 "same: campaign aborted: %s\n"
                 "same: the baseline operating point is a precondition of every fault\n"
                 "same: comparison; fix the model, or rerun with --best-effort to emit a\n"
                 "same: degraded all-NotApplicable FMEDA\n",
                 error.what());
    return 4;
  }
  std::printf("%s\n", result.to_text().render().c_str());
  for (const auto& warning : result.warnings) std::printf("note: %s\n", warning.c_str());
  std::printf("\ncampaign: %s\n", result.outcome_summary().c_str());
  std::printf("SPFM = %s  ->  %s\n", format_percent(result.spfm()).c_str(),
              core::achieved_asil(result.spfm()).c_str());
  if (const auto out = args.get("out")) {
    write_csv_file(*out, result.to_csv());
    std::printf("FMEDA written to %s\n", out->c_str());
  }
  return 0;
}

int cmd_merge_journals(const Args& args) {
  if (args.positional.empty()) return usage();
  // Same epilogue as cmd_fmea: the merged result must be indistinguishable
  // from what an unsharded `same fmea` run would have printed and written.
  const auto result = core::merge_campaign_journals(args.positional);
  std::printf("%s\n", result.to_text().render().c_str());
  for (const auto& warning : result.warnings) std::printf("note: %s\n", warning.c_str());
  std::printf("\ncampaign: %s\n", result.outcome_summary().c_str());
  std::printf("SPFM = %s  ->  %s\n", format_percent(result.spfm()).c_str(),
              core::achieved_asil(result.spfm()).c_str());
  if (const auto out = args.get("out")) {
    write_csv_file(*out, result.to_csv());
    std::printf("FMEDA written to %s\n", out->c_str());
  }
  return 0;
}

int cmd_import(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto out = args.get("out");
  if (!out.has_value()) {
    std::fprintf(stderr, "error: --out <design.ssam> is required\n");
    return 2;
  }
  const auto mdl = drivers::parse_mdl_file(args.positional[0]);
  ssam::SsamModel model;
  const auto result = transform::simulink_to_ssam(mdl, model);
  const auto missing = transform::audit_information_loss(mdl, model, result);
  std::printf("transformed %zu blocks, %zu lines, %zu parameters\n", result.blocks,
              result.lines, result.params);
  if (!missing.empty()) {
    for (const auto& item : missing) std::fprintf(stderr, "LOSS: %s\n", item.c_str());
    return 1;
  }
  model::save_xmi_file(*out, model.repo(), model.meta());
  std::printf("lossless; SSAM model (%zu elements) written to %s\n", model.size(),
              out->c_str());
  return 0;
}

int cmd_export(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto out = args.get("out");
  if (!out.has_value()) {
    std::fprintf(stderr, "error: --out <model.mdl> is required\n");
    return 2;
  }
  ssam::SsamModel model;
  model::load_xmi_file(model.repo(), model.meta(), args.positional[0]);
  // The import root: a Component tagged as the Model by the transformation.
  ssam::ObjectId root = model::kNullObject;
  model.repo().for_each([&](const model::ModelObject& obj) {
    if (root != model::kNullObject) return;
    if (!obj.is_kind_of(model.meta().get(ssam::cls::Component))) return;
    for (const auto c : obj.refs("implementationConstraints")) {
      const auto& constraint = model.obj(c);
      if (constraint.get_string("language") == "simulink-blocktype" &&
          constraint.get_string("body") == "Model") {
        root = obj.id();
      }
    }
  });
  if (root == model::kNullObject) {
    std::fprintf(stderr, "error: no imported model root found in %s\n",
                 args.positional[0].c_str());
    return 1;
  }
  drivers::write_mdl_file(*out, transform::ssam_to_simulink(model, root));
  std::printf("regenerated model written to %s\n", out->c_str());
  return 0;
}

int cmd_assurance(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto doc = xml::parse_file(args.positional[0]);
  const auto ac = assurance::AssuranceCase::from_xml(xml::write(*doc));
  const auto report = assurance::evaluate(ac);
  for (const auto& result : report.results) {
    std::printf("%-12s %-12s %s\n", result.id.c_str(),
                std::string(to_string(result.state)).c_str(), result.detail.c_str());
  }
  std::printf("\ncase '%s': %s\n", ac.name().c_str(),
              report.case_supported ? "SUPPORTED" : "NOT SUPPORTED");
  return report.case_supported ? 0 : 1;
}

int cmd_query(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const auto source = drivers::DriverRegistry::global().open(args.positional[0],
                                                             args.get("type").value_or(""));
  query::Env env;
  source->bind(env);
  const auto value = query::eval(args.positional[1], env);
  std::printf("%s\n", value.to_display().c_str());
  return 0;
}

int cmd_impact(const Args& args) {
  if (args.positional.size() < 2) return usage();
  ssam::SsamModel model;
  model::load_xmi_file(model.repo(), model.meta(), args.positional[0]);
  const auto component = model.find_by_name(ssam::cls::Component, args.positional[1]);
  if (component == model::kNullObject) {
    std::fprintf(stderr, "error: no component named '%s'\n", args.positional[1].c_str());
    return 1;
  }
  const auto report = core::impact_of_change(model, component);
  std::printf("%s", report.to_text(model).c_str());
  return 0;
}

int cmd_session(const Args& args) {
  session::ServiceOptions options;
  // The model can come positionally or via --model; either way a resident
  // model needs --component to name the analysis root.
  if (!args.positional.empty()) options.model_path = args.positional[0];
  if (const auto model = args.get("model")) options.model_path = *model;
  if (!options.model_path.empty()) {
    const auto component = args.get("component");
    if (!component.has_value()) {
      std::fprintf(stderr, "error: --component <name> is required with a model path\n");
      return 2;
    }
    options.component = *component;
  }
  if (const auto cache = args.get("cache")) options.cache_path = *cache;
  if (const auto jobs = args.get("jobs")) {
    options.analysis.jobs = static_cast<int>(parse_int(*jobs));
    if (options.analysis.jobs < 0) {
      std::fprintf(stderr, "error: --jobs must be >= 0 (0 = all cores)\n");
      return 2;
    }
  }
  return session::run_service(std::cin, std::cout, options);
}

int cmd_scalability(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto elements = static_cast<std::uint64_t>(parse_int(args.positional[0]));
  const size_t budget =
      static_cast<size_t>(parse_int(args.get("budget-mib").value_or("4096"))) * 1024 * 1024;
  const auto full = core::evaluate_full_load(elements, budget);
  if (full.loaded) {
    std::printf("full-load: %llu elements, %llu safety-related, total FIT %.0f, %.3f s\n",
                static_cast<unsigned long long>(full.elements),
                static_cast<unsigned long long>(full.safety_related), full.total_fit,
                full.load_seconds + full.query_seconds);
  } else {
    std::printf("full-load: N/A — %s\n", full.failure.c_str());
  }
  const auto indexed = core::evaluate_indexed(elements);
  std::printf("indexed:   %llu elements, %llu safety-related, total FIT %.0f, %.3f s\n",
              static_cast<unsigned long long>(indexed.elements),
              static_cast<unsigned long long>(indexed.safety_related), indexed.total_fit,
              indexed.load_seconds + indexed.query_seconds);
  return 0;
}

std::string read_file_or_throw(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError(std::string("cannot open ") + what + " '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int cmd_check_trace(const Args& args) {
  if (args.positional.empty()) return usage();
  const std::string& path = args.positional[0];
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open trace file '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string problem = obs::validate_chrome_trace(buffer.str());
  if (!problem.empty()) {
    std::fprintf(stderr, "invalid trace %s: %s\n", path.c_str(), problem.c_str());
    return 1;
  }
  std::printf("ok: %s is a well-formed Chrome trace\n", path.c_str());
  return 0;
}

int cmd_status(const Args& args) {
  if (args.positional.empty()) return usage();
  namespace fs = std::filesystem;
  const std::string& target = args.positional[0];
  const double stale_seconds = parse_double(args.get("stale-seconds").value_or("30"));

  std::vector<std::string> files;
  if (fs::is_regular_file(target)) {
    files.push_back(target);
  } else if (fs::is_directory(target)) {
    for (const auto& entry : fs::directory_iterator(target)) {
      if (entry.is_regular_file() &&
          ends_with(entry.path().filename().string(), ".heartbeat.json")) {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
  } else {
    std::fprintf(stderr, "error: '%s' is neither a directory nor a heartbeat file\n",
                 target.c_str());
    return 2;
  }

  std::vector<std::pair<std::string, obs::Heartbeat>> beats;
  for (const std::string& file : files) {
    try {
      beats.emplace_back(file, obs::parse_heartbeat(read_file_or_throw(file, "heartbeat")));
    } catch (const Error& error) {
      std::fprintf(stderr, "warning: skipping '%s': %s\n", file.c_str(), error.what());
    }
  }
  if (beats.empty()) {
    std::fprintf(stderr, "no heartbeat found under '%s'\n", target.c_str());
    return 1;
  }

  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const auto now_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now).count());
  const obs::StatusView view = obs::fold_status(beats, now_ms, stale_seconds);
  std::printf("%s", view.render().c_str());
  return view.dead_shards > 0 ? 3 : 0;
}

int cmd_merge_metrics(const Args& args) {
  if (args.positional.empty()) return usage();
  std::vector<std::string> texts;
  for (const std::string& path : args.positional) {
    texts.push_back(read_file_or_throw(path, "metrics snapshot"));
  }
  const std::string merged = obs::merge_registry_snapshots(texts);
  if (const auto out = args.get("out")) {
    std::ofstream file(*out, std::ios::binary);
    if (!file) throw IoError("cannot write '" + *out + "'");
    file << merged;
    std::fprintf(stderr, "merged %zu snapshot(s) into %s\n", texts.size(), out->c_str());
  } else {
    std::printf("%s", merged.c_str());
  }
  return 0;
}

int cmd_merge_traces(const Args& args) {
  if (args.positional.empty()) return usage();
  std::vector<std::string> texts;
  for (const std::string& path : args.positional) {
    texts.push_back(read_file_or_throw(path, "trace"));
  }
  const std::string merged = obs::merge_chrome_traces(texts);
  // The merge must itself be a valid trace — check before anyone ships it
  // to a viewer, mirroring `same check-trace`.
  const std::string problem = obs::validate_chrome_trace(merged);
  if (!problem.empty()) {
    std::fprintf(stderr, "error: merged trace is invalid: %s\n", problem.c_str());
    return 1;
  }
  if (const auto out = args.get("out")) {
    std::ofstream file(*out, std::ios::binary);
    if (!file) throw IoError("cannot write '" + *out + "'");
    file << merged;
    std::fprintf(stderr, "merged %zu trace(s) into %s\n", texts.size(), out->c_str());
  } else {
    std::printf("%s", merged.c_str());
  }
  return 0;
}

int dispatch(const std::string& command, const Args& args) {
  // `campaign` names what the command actually runs (the fault-injection
  // campaign engine); `fmea` is the historical spelling.
  if (command == "fmea" || command == "campaign") return cmd_fmea(args);
  if (command == "merge-journals") return cmd_merge_journals(args);
  if (command == "graph-fmea") return cmd_graph_fmea(args);
  if (command == "sm-search") return cmd_sm_search(args);
  if (command == "import") return cmd_import(args);
  if (command == "export") return cmd_export(args);
  if (command == "assurance") return cmd_assurance(args);
  if (command == "query") return cmd_query(args);
  if (command == "scalability") return cmd_scalability(args);
  if (command == "validate") return cmd_validate(args);
  if (command == "fta") return cmd_fta(args);
  if (command == "monitor") return cmd_monitor(args);
  if (command == "impact") return cmd_impact(args);
  if (command == "session") return cmd_session(args);
  if (command == "check-trace") return cmd_check_trace(args);
  if (command == "status") return cmd_status(args);
  if (command == "merge-metrics") return cmd_merge_metrics(args);
  if (command == "merge-traces") return cmd_merge_traces(args);
  if (command == "help" || command == "--help" || command == "-h") {
    usage();
    return 0;
  }
  std::fprintf(stderr, "same: unknown command '%s'\n", command.c_str());
  return usage();
}

/// The observability epilogue, shared by every subcommand. Both artefacts go
/// to stderr/side files so stdout (tables, CSVs, session replies) stays
/// byte-identical with instrumentation on or off.
int finish_instrumentation(const Args& args, const std::optional<std::string>& trace_path) {
  if (trace_path.has_value()) {
    auto& collector = obs::TraceCollector::global();
    collector.disable();
    collector.write_file(*trace_path);
    std::fprintf(stderr, "trace: %zu events written to %s\n", collector.event_count(),
                 trace_path->c_str());
  }
  if (const auto metrics = args.get("metrics")) {
    const std::string text = obs::Registry::global().to_prometheus();
    if (*metrics == "true") {
      std::fputs(text.c_str(), stderr);
    } else {
      std::ofstream out(*metrics, std::ios::binary);
      if (!out) throw IoError("cannot write metrics file '" + *metrics + "'");
      out << text;
      std::fprintf(stderr, "metrics written to %s\n", metrics->c_str());
    }
  }
  if (const auto snapshot = args.get("metrics-json")) {
    if (*snapshot == "true") throw IoError("--metrics-json requires an output path");
    std::ofstream out(*snapshot, std::ios::binary);
    if (!out) throw IoError("cannot write metrics snapshot '" + *snapshot + "'");
    out << obs::registry_snapshot_json(obs::Registry::global());
    std::fprintf(stderr, "metrics snapshot written to %s\n", snapshot->c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv, 2);
  const auto trace_path = args.get("trace");
  if (trace_path.has_value()) {
    if (*trace_path == "true") {
      std::fprintf(stderr, "error: --trace requires an output path\n");
      return 2;
    }
    obs::TraceCollector::global().enable();
  }
  int rc;
  try {
    rc = dispatch(command, args);
  } catch (const Error& error) {
    std::fprintf(stderr, "same: %s\n", error.what());
    rc = 1;
  }
  try {
    finish_instrumentation(args, trace_path);
  } catch (const Error& error) {
    std::fprintf(stderr, "same: %s\n", error.what());
    if (rc == 0) rc = 1;
  }
  return rc;
}
