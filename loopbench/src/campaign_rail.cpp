// campaign_rail: the `same fmea` path, from an MDL file and a reliability
// workbook to the FMEDA CSV, on a seeded ~128-stage supply rail.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/base/json.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/drivers/datasource.hpp"
#include "decisive/drivers/mdl.hpp"
#include "decisive/obs/trace.hpp"
#include "decisive/sim/builder.hpp"
#include "loopbench.hpp"

namespace loopbench {

namespace fs = std::filesystem;
using namespace decisive;

namespace {

struct CampaignOutput {
  std::string csv;
  std::vector<std::string> warnings;
};

class CampaignRail final : public Workload {
 public:
  explicit CampaignRail(const fs::path& dir)
      : mdl_path_((dir / "rail.mdl").string()), workbook_((dir / "workbook").string()) {
    options_.jobs = 1;
  }

  void set_up() override { last_ = run_campaign(nullptr, options_); }

  void prepare_oracle() override {
    // The dense-only campaign: no batched tier, no sparse tier.
    core::CircuitFmeaOptions dense = options_;
    dense.batch = false;
    dense.sparse = false;
    dense.solver.sparse = false;
    oracle_ = run_campaign(nullptr, dense);
  }

  void run_op(size_t /*index*/, Tracer* tracer) override {
    last_ = run_campaign(tracer, options_);
  }

  std::string check_op(size_t /*index*/) override {
    if (last_.csv != oracle_.csv) return "FMEDA CSV differs from the dense-only campaign";
    if (last_.warnings != oracle_.warnings) return "warnings differ from the dense-only campaign";
    return "";
  }

  void layers(Tracer& tracer, const RegistrySnapshot& before, const RegistrySnapshot& after,
              LayerSample& out) override {
    fold_program_spans(tracer, out);
    const double tasks = after.since(before, "decisive_campaign_tasks_total");
    const double solves = after.since(before, "decisive_solver_solves_total");
    const double sparse_rows = after.since(before, "decisive_campaign_sparse_rows_total");
    const double batched_rows = after.since(before, "decisive_campaign_batched_rows_total");
    out.ms["core.campaign.task"] = after.since(before, "decisive_campaign_task_seconds") * 1e3;
    out.ratios["sim.solves_per_task"] = {solves, tasks};
    out.ratios["sim.newton_iters_per_solve"] = {
        after.since(before, "decisive_solver_iterations_total"), solves};
    out.ratios["sim.sparse_accept_ratio"] = {sparse_rows, tasks};
    out.ratios["sim.batch_accept_ratio"] = {batched_rows, tasks};
    out.ratios["sim.dense_fallback_ratio"] = {tasks - sparse_rows - batched_rows, tasks};
    out.counts["sim.sparse_refactors"] = after.since(before, "decisive_sparse_refactors_total");
    out.counts["sim.sparse_partial_refactors"] =
        after.since(before, "decisive_sparse_partial_refactors_total");
  }

 private:
  CampaignOutput run_campaign(Tracer* tracer, const core::CircuitFmeaOptions& options) {
    std::optional<drivers::MdlModel> mdl;
    {
      Scope span(tracer, "drivers.parse_mdl");
      mdl = drivers::parse_mdl_file(mdl_path_);
    }
    std::optional<sim::BuiltCircuit> built;
    {
      Scope span(tracer, "sim.build_circuit");
      built = sim::build_circuit(*mdl);
    }
    std::optional<core::ReliabilityModel> reliability;
    {
      Scope span(tracer, "drivers.reliability");
      const auto workbook = drivers::DriverRegistry::global().open(workbook_);
      reliability = core::ReliabilityModel::from_source(*workbook, "Reliability");
    }
    core::FmedaResult result;
    {
      Scope span(tracer, "core.analyze_circuit");
      if (tracer != nullptr) analyze_span_ = tracer->innermost();
      result = core::analyze_circuit(*built, *reliability, nullptr, options);
    }
    CampaignOutput out;
    {
      Scope span(tracer, "core.render_csv");
      out.csv = write_csv(result.to_csv());
    }
    out.warnings = std::move(result.warnings);
    return out;
  }

  /// Folds the program's own campaign spans (recorded by its trace
  /// collector during the traced operation) into the benchmark's trace as
  /// children of core.analyze_circuit: the baseline solve, the batched and
  /// sparse solve contexts, and the task phase from the first task to the
  /// last.
  void fold_program_spans(Tracer& tracer, LayerSample& out) const {
    const auto& collector = obs::TraceCollector::global();
    const json::Value document = json::parse(collector.to_chrome_json());
    const Clock::time_point origin = program_trace_origin();
    auto at = [origin](double us) {
      return origin + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::micro>(us));
    };
    std::vector<std::pair<std::string, double>> open;
    std::optional<double> tasks_begin;
    double tasks_end = 0.0;
    for (const json::Value& event : document.find("traceEvents")->as_array()) {
      const std::string& name = event.find("name")->as_string();
      const std::string& phase = event.find("ph")->as_string();
      const double ts = event.find("ts")->as_number();
      if (phase == "B") {
        open.emplace_back(name, ts);
        continue;
      }
      if (open.empty()) continue;
      const double begin = open.back().second;
      open.pop_back();
      const char* folded = nullptr;
      if (name == "campaign.baseline") folded = "core.campaign.baseline";
      if (name == "campaign.batch_context" || name == "campaign.sparse_context") {
        folded = "core.campaign.context";
      }
      if (folded != nullptr) {
        tracer.add_closed(folded, at(begin), at(ts), analyze_span_);
        out.ms[folded] += (ts - begin) / 1e3;
      }
      if (name == "campaign.task") {
        if (!tasks_begin) tasks_begin = begin;
        tasks_end = ts;
      }
    }
    if (tasks_begin) tracer.add_closed("core.campaign.task", at(*tasks_begin), at(tasks_end),
                                       analyze_span_);
  }

  std::string mdl_path_;
  std::string workbook_;
  core::CircuitFmeaOptions options_;
  CampaignOutput last_;
  CampaignOutput oracle_;
  int analyze_span_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_campaign_rail(const fs::path& dir) {
  return std::make_unique<CampaignRail>(dir);
}

}  // namespace loopbench
