// design_pass: one cold analysis from a model file to every artefact —
// load the XMI, graph-FMEA, ZBDD fault tree (synthesis, quantification,
// latent-fault classification), Pareto safety-mechanism search, and the
// FMEDA, cut-set and front CSVs — on a seeded-FIT
// make_scaled_architecture(16, 2, 6) subject.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "decisive/base/csv.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/sm_search.hpp"
#include "decisive/drivers/datasource.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/fta/lfm.hpp"
#include "decisive/fta/quantify.hpp"
#include "decisive/model/xmi.hpp"
#include "decisive/ssam/model.hpp"
#include "loopbench.hpp"

namespace loopbench {

namespace fs = std::filesystem;
using namespace decisive;

namespace {

constexpr double kMissionHours = 10000.0;

/// Everything one pass produces; rendered in the pass, compared after it.
struct PassOutput {
  std::string fmeda_csv;
  std::string cut_sets_csv;
  std::string front_csv;
  std::string lfm_text;
  double exact_probability = 0.0;
  double rare_event_bound = 0.0;
};

class DesignPass final : public Workload {
 public:
  explicit DesignPass(const fs::path& dir)
      : xmi_path_((dir / "design.xmi").string()),
        catalogue_path_((dir / "catalogue.csv").string()) {
    graph_options_.jobs = 1;
    pareto_options_.jobs = 1;
  }

  /// Loads the mechanism catalogue (the same CSV path as `same sm-search
  /// --catalogue`), then runs one untimed warm-up pass. The first pass ever
  /// run is the oracle reference for all later ones.
  void set_up() override {
    const auto source = drivers::DriverRegistry::global().open(catalogue_path_);
    catalogue_ = core::SafetyMechanismModel::from_source(*source, "");
    run_pass(nullptr);
    if (!reference_) reference_ = last_;
  }

  void prepare_oracle() override {}

  std::optional<double> before_op(size_t /*index*/) override {
    model_.reset();  // the previous pass's model, released outside the timing
    return std::nullopt;
  }

  void run_op(size_t /*index*/, Tracer* tracer) override { run_pass(tracer); }

  std::string check_op(size_t /*index*/) override {
    // Both values are sums of the same cut-set probabilities in different
    // orders, so the comparison allows rounding (relative 1e-12).
    if (!(last_.exact_probability <= last_.rare_event_bound * (1.0 + 1e-12))) {
      char detail[160];
      std::snprintf(detail, sizeof detail,
                    "exact top-event probability %.17g exceeds the rare-event bound %.17g",
                    last_.exact_probability, last_.rare_event_bound);
      return detail;
    }
    if (last_.fmeda_csv != reference_->fmeda_csv) return "FMEDA CSV differs from the first pass";
    if (last_.cut_sets_csv != reference_->cut_sets_csv) {
      return "cut-set CSV differs from the first pass";
    }
    if (last_.front_csv != reference_->front_csv) return "front CSV differs from the first pass";
    if (last_.lfm_text != reference_->lfm_text) {
      return "latent-fault classification differs from the first pass";
    }
    return "";
  }

  void layers(Tracer& /*tracer*/, const RegistrySnapshot& before, const RegistrySnapshot& after,
              LayerSample& out) override {
    out.ms["core.graph_fmea.collect"] =
        after.since(before, "decisive_graph_fmea_collect_seconds") * 1e3;
    out.ms["core.graph_fmea.analyze"] =
        after.since(before, "decisive_graph_fmea_analyze_seconds") * 1e3;
    out.ms["core.graph_fmea.emit"] = after.since(before, "decisive_graph_fmea_emit_seconds") * 1e3;
    out.ratios["fta.memo_hit_ratio"] = {after.since(before, "decisive_fta_state_cache_hits_total"),
                                        after.since(before, "decisive_fta_states_total")};
    out.counts["fta.zbdd_nodes"] = after.at("decisive_fta_zbdd_nodes");
    out.ratios["core.pareto.prune_ratio"] = {
        after.since(before, "decisive_sm_search_labels_pruned_total"),
        after.since(before, "decisive_sm_search_labels_total")};
    out.counts["core.pareto.front_size"] = after.at("decisive_sm_search_front_size");
  }

 private:
  void run_pass(Tracer* tracer) {
    ssam::ObjectId root = model::kNullObject;
    {
      Scope span(tracer, "model.load_xmi");
      model_ = std::make_unique<ssam::SsamModel>();
      model::load_xmi_file(model_->repo(), model_->meta(), xmi_path_);
      root = model_->find_by_name(ssam::cls::Component, "System");
    }
    std::optional<core::FmedaResult> fmea;
    {
      Scope span(tracer, "core.analyze_component");
      fmea = core::analyze_component(*model_, root, graph_options_);
    }
    std::optional<core::FaultTree> tree;
    {
      Scope span(tracer, "fta.synthesize");
      tree = fta::synthesize_fault_tree_zbdd(*model_, root);
    }
    std::optional<fta::Quantification> quantification;
    {
      Scope span(tracer, "fta.quantify");
      quantification = fta::quantify(*tree, kMissionHours);
    }
    std::optional<fta::LfmResult> lfm;
    {
      Scope span(tracer, "fta.classify_latent");
      lfm = fta::classify_latent(*model_, *tree, *fmea);
    }
    std::vector<core::Deployment> front;
    {
      Scope span(tracer, "core.pareto");
      front = core::pareto_front(*fmea, catalogue_, pareto_options_);
    }
    {
      Scope span(tracer, "core.render_csv");
      last_.fmeda_csv = write_csv(fmea->to_csv());
      last_.cut_sets_csv = write_csv(fta::cut_sets_csv(*tree, kMissionHours));
      last_.front_csv = write_csv(core::front_to_csv(*fmea, front));
      last_.lfm_text = lfm->to_text();
    }
    last_.exact_probability = quantification->exact_probability;
    last_.rare_event_bound = quantification->rare_event_bound;
  }

  std::string xmi_path_;
  std::string catalogue_path_;
  core::GraphFmeaOptions graph_options_;
  core::ParetoOptions pareto_options_;
  core::SafetyMechanismModel catalogue_;
  std::unique_ptr<ssam::SsamModel> model_;
  PassOutput last_;
  std::optional<PassOutput> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_design_pass(const fs::path& dir) {
  return std::make_unique<DesignPass>(dir);
}

}  // namespace loopbench
