// edit_loop: one turn of a resident analysis session — apply a seeded edit,
// AnalysisSession::reanalyze(), render the FMEDA CSV — on the
// make_scaled_architecture(40, 96) subject loaded from XMI.
//
// The turns come from a fixed-length seeded script (128 turns). When the
// script runs out, the model is reloaded and a fresh session primed
// (untimed), so every replay starts from the same model: neither the model
// nor the session's result cache grows without bound, however many turns a
// run fits.
#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/model/xmi.hpp"
#include "decisive/session/incremental.hpp"
#include "decisive/ssam/model.hpp"
#include "loopbench.hpp"

namespace loopbench {

namespace fs = std::filesystem;
using namespace decisive;

namespace {

enum class EditKind { SetFit, AddFailureMode, DeploySm, None };

struct Turn {
  EditKind kind = EditKind::None;
  std::string leaf;  ///< target component name
  double value = 0.0;
};

/// 60% set-fit, 10% add-failure-mode, 10% deploy-sm and 20% no-op
/// re-analyses (rounded to the script length), in a seeded order, each on a
/// uniformly drawn leaf. Fixed shares keep every seed's mix the same.
std::vector<Turn> make_script(std::uint32_t seed, const Sizes& sizes) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> composite(0, sizes.edit_composites - 1);
  std::uniform_int_distribution<size_t> leaf(0, sizes.edit_leaves - 1);
  std::uniform_real_distribution<double> fit(1.0, 50.0);
  std::uniform_real_distribution<double> fraction(0.5, 0.99);
  const size_t turns = sizes.edit_script_turns;
  std::vector<Turn> script(turns);
  for (size_t i = 0; i < turns; ++i) {
    const size_t percent = i * 100 / turns;
    script[i].kind = percent < 60   ? EditKind::SetFit
                     : percent < 70 ? EditKind::AddFailureMode
                     : percent < 80 ? EditKind::DeploySm
                                    : EditKind::None;
  }
  std::shuffle(script.begin(), script.end(), rng);
  for (Turn& turn : script) {
    turn.leaf = "Unit" + std::to_string(composite(rng)) + ".Leaf" + std::to_string(leaf(rng));
    turn.value = turn.kind == EditKind::SetFit ? fit(rng) : fraction(rng);
  }
  return script;
}

/// Every how many turns the incremental result is compared with a cold run
/// (the last turn of every script replay is always compared too).
constexpr size_t kCheckEvery = 8;

class EditLoop final : public Workload {
 public:
  EditLoop(const fs::path& dir, std::uint32_t seed, const Sizes& sizes)
      : xmi_path_((dir / "design.xmi").string()), script_(make_script(seed, sizes)) {
    options_.jobs = 1;
  }

  /// Model load plus the first (cold) reanalyze of a fresh session.
  void set_up() override {
    session_.reset();
    model_.reset();
    const Clock::time_point start = Clock::now();
    model_ = std::make_unique<ssam::SsamModel>();
    model::load_xmi_file(model_->repo(), model_->meta(), xmi_path_);
    root_ = model_->find_by_name(ssam::cls::Component, "System");
    const Clock::time_point loaded = Clock::now();
    session_ = std::make_unique<session::AnalysisSession>(*model_, root_, options_);
    session_->reanalyze();
    setup_ms_ = {{"model.load_xmi", ms_between(start, loaded)},
                 {"session.cold_reanalyze", ms_between(loaded, Clock::now())}};
  }

  [[nodiscard]] std::map<std::string, double> setup_layers() const override { return setup_ms_; }

  void prepare_oracle() override {}

  std::optional<double> before_op(size_t index) override {
    if (index == 0 || index % script_.size() != 0) return std::nullopt;
    const Clock::time_point start = Clock::now();
    set_up();
    return ms_between(start, Clock::now()) / 1e3;
  }

  void run_op(size_t index, Tracer* tracer) override {
    const Turn& turn = script_[index % script_.size()];
    {
      Scope span(tracer, "ssam.edit");
      apply(turn, index % script_.size());
    }
    {
      Scope span(tracer, "session.reanalyze");
      session_->reanalyze();
    }
    {
      Scope span(tracer, "core.render_csv");
      last_csv_ = write_csv(session_->last_result().to_csv());
    }
  }

  std::string check_op(size_t index) override {
    const size_t turn = index % script_.size();
    if (turn % kCheckEvery != kCheckEvery - 1 && turn != script_.size() - 1) return "";
    return check_final();
  }

  std::string check_final() override {
    if (last_csv_ != write_csv(session_->cold_analyze().to_csv())) {
      return "reanalyze() differs from cold_analyze()";
    }
    return "";
  }

  void layers(Tracer& /*tracer*/, const RegistrySnapshot& before, const RegistrySnapshot& after,
              LayerSample& out) override {
    const auto& stats = session_->last_stats();
    out.ms["session.fingerprint"] = stats.fingerprint_seconds * 1e3;
    out.ms["session.analyze"] = stats.analyze_seconds * 1e3;
    out.ms["session.other"] =
        (stats.total_seconds - stats.fingerprint_seconds - stats.analyze_seconds) * 1e3;
    out.ms["core.graph_fmea.collect"] =
        after.since(before, "decisive_graph_fmea_collect_seconds") * 1e3;
    out.ms["core.graph_fmea.analyze"] =
        after.since(before, "decisive_graph_fmea_analyze_seconds") * 1e3;
    out.ms["core.graph_fmea.emit"] = after.since(before, "decisive_graph_fmea_emit_seconds") * 1e3;
    out.ratios["session.hit_rate"] = {static_cast<double>(stats.cache_hits),
                                      static_cast<double>(stats.units)};
    out.ratios["session.short_circuit_ratio"] = {stats.short_circuited ? 1.0 : 0.0, 1.0};
    out.counts["session.dirty_components"] =
        static_cast<double>(stats.changed_components + stats.widened_components);
  }

 private:
  /// The edit as `same session` applies it: name lookup, model mutation,
  /// note_edit.
  void apply(const Turn& turn, size_t step) {
    if (turn.kind == EditKind::None) return;
    const ssam::ObjectId leaf = model_->find_by_name(ssam::cls::Component, turn.leaf);
    switch (turn.kind) {
      case EditKind::SetFit:
        model_->obj(leaf).set_real("fit", turn.value);
        break;
      case EditKind::AddFailureMode:
        model_->add_failure_mode(leaf, "FM-" + std::to_string(step), turn.value,
                                 "lossOfFunction");
        break;
      case EditKind::DeploySm:
        model_->add_safety_mechanism(leaf, "SM-" + std::to_string(step), turn.value, 1.0,
                                     model::kNullObject);
        break;
      case EditKind::None:
        break;
    }
    session_->note_edit(leaf);
  }

  std::string xmi_path_;
  std::vector<Turn> script_;
  core::GraphFmeaOptions options_;
  std::unique_ptr<ssam::SsamModel> model_;
  std::unique_ptr<session::AnalysisSession> session_;
  ssam::ObjectId root_ = model::kNullObject;
  std::string last_csv_;
  std::map<std::string, double> setup_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_edit_loop(const fs::path& dir, std::uint32_t seed,
                                         const Sizes& sizes) {
  return std::make_unique<EditLoop>(dir, seed, sizes);
}

}  // namespace loopbench
