#include "decisive/session/service.hpp"

#include <cstdio>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/core/impact.hpp"
#include "decisive/core/reliability.hpp"
#include "decisive/core/sm_search.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/fta/lfm.hpp"
#include "decisive/fta/quantify.hpp"
#include "decisive/drivers/datasource.hpp"
#include "decisive/drivers/mdl.hpp"
#include "decisive/model/xmi.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/obs/log.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/span.hpp"
#include "decisive/session/incremental.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::session {

namespace {

using ssam::ObjectId;
using ssam::SsamModel;

std::string format_ms(double seconds) { return format_number(seconds * 1e3, 3) + "ms"; }

/// Service-level instrumentation. Registered up front (not lazily) so a
/// `metrics` request always exposes the full catalogue — including the
/// session cache and latency series — even before the first reanalyze.
struct ServiceMetrics {
  obs::Counter& requests;
  obs::Counter& request_errors;
  obs::Counter& model_loads;
  obs::Gauge& spfm;
  obs::Gauge& rows;
  obs::Gauge& cache_entries;
  obs::Histogram& request_seconds;

  static ServiceMetrics& get() {
    auto& registry = obs::Registry::global();
    static ServiceMetrics metrics{
        registry.counter("decisive_session_requests_total"),
        registry.counter("decisive_session_request_errors_total"),
        registry.counter("decisive_session_model_loads_total"),
        registry.gauge("decisive_session_spfm"),
        registry.gauge("decisive_session_rows"),
        registry.gauge("decisive_session_cache_entries"),
        registry.histogram("decisive_session_request_seconds")};
    return metrics;
  }

  /// Touches every series other layers register lazily, so the exposition is
  /// complete from the first request of a fresh process.
  static void preregister() {
    auto& registry = obs::Registry::global();
    registry.counter("decisive_session_reanalyses_total");
    registry.counter("decisive_session_short_circuits_total");
    registry.counter("decisive_session_cache_hits_total");
    registry.counter("decisive_session_cache_misses_total");
    registry.counter("decisive_session_invalidations_total");
    registry.counter("decisive_session_full_fingerprint_passes_total");
    registry.counter("decisive_fta_request_cache_hits_total");
    registry.counter("decisive_fta_request_cache_misses_total");
    get();
  }
};

/// The resident state of one service run.
class Service {
 public:
  Service(std::ostream& out, const core::GraphFmeaOptions& analysis,
          std::string default_cache_path)
      : out_(out), analysis_(analysis), default_cache_path_(std::move(default_cache_path)) {
    ServiceMetrics::preregister();
  }

  /// Dispatches one request line; returns false when the loop should end.
  bool handle(const std::string& line) {
    const std::string trimmed{trim(line)};
    if (trimmed.empty() || trimmed.front() == '#') return true;
    const std::vector<std::string> tokens = split(trimmed, ' ');
    const std::string& command = tokens.front();
    ServiceMetrics& metrics = ServiceMetrics::get();
    metrics.requests.add();
    obs::Span span("session.request", &metrics.request_seconds);
    try {
      if (command == "quit") {
        out_ << "ok\n";
        return false;
      }
      if (command == "help") cmd_help();
      else if (command == "load") cmd_load(tokens);
      else if (command == "set-fit") cmd_set_fit(tokens);
      else if (command == "rewire") cmd_rewire(tokens);
      else if (command == "add-failure-mode") cmd_add_failure_mode(tokens);
      else if (command == "deploy-sm") cmd_deploy_sm(tokens);
      else if (command == "impact") cmd_impact(tokens);
      else if (command == "campaign") cmd_campaign(tokens);
      else if (command == "pareto") cmd_pareto(tokens);
      else if (command == "fta") cmd_fta(tokens);
      else if (command == "reanalyze") cmd_reanalyze(tokens);
      else if (command == "table") cmd_table();
      else if (command == "result") cmd_result();
      else if (command == "metrics") cmd_metrics();
      else if (command == "stats") cmd_stats();
      else if (command == "save") cmd_save(tokens);
      else if (command == "save-cache") cmd_save_cache(tokens);
      else if (command == "load-cache") cmd_load_cache(tokens);
      else throw ModelError("unknown command '" + command + "' (try: help)");
      out_ << "ok\n";
    } catch (const Error& error) {
      // The protocol answer goes to the client; the stderr diagnostic goes
      // through the leveled logger so scripts piping stdout stay clean.
      metrics.request_errors.add();
      obs::log(obs::LogLevel::Info,
               "session request '" + command + "' failed: " + error.what());
      out_ << "error: " << error.what() << "\n";
    }
    out_.flush();
    return true;
  }

  bool load(const std::string& path, const std::string& component_name) {
    auto model = std::make_unique<SsamModel>();
    model::load_xmi_file(model->repo(), model->meta(), path);
    const ObjectId root = model->find_by_name(ssam::cls::Component, component_name);
    if (root == model::kNullObject) {
      throw ModelError("no component named '" + component_name + "' in " + path);
    }
    session_.reset();  // order matters: the session references the old model
    model_ = std::move(model);
    session_.emplace(*model_, root, analysis_);
    ServiceMetrics::get().model_loads.add();
    out_ << "loaded " << path << " (" << model_->size() << " elements), root '"
         << component_name << "'\n";
    return true;
  }

  void load_cache(const std::string& path) {
    const ResultCache::LoadReport report = require_session().cache().load_file(path);
    if (report.loaded) {
      out_ << "cache loaded: " << report.entries << " entries\n";
    } else {
      obs::log(obs::LogLevel::Warn, "result cache at '" + path + "' rebuilt: " + report.note);
      out_ << "cache rebuilt: " << report.note << "\n";
    }
  }

 private:
  AnalysisSession& require_session() {
    if (!session_.has_value()) {
      throw ModelError("no model loaded (use: load <model.ssam> <component>)");
    }
    return *session_;
  }

  ObjectId component_named(const std::string& name) {
    require_session();
    const ObjectId id = model_->find_by_name(ssam::cls::Component, name);
    if (id == model::kNullObject) throw ModelError("no component named '" + name + "'");
    return id;
  }

  ObjectId io_node_named(const std::string& name) {
    const ObjectId id = model_->find_by_name(ssam::cls::IONode, name);
    if (id == model::kNullObject) throw ModelError("no IONode named '" + name + "'");
    return id;
  }

  static void expect_arity(const std::vector<std::string>& tokens, size_t n,
                           const char* usage) {
    if (tokens.size() != n) throw ModelError(std::string("usage: ") + usage);
  }

  void cmd_help() {
    out_ << "commands:\n"
            "  load <model.ssam> <component>      bind the session to a model\n"
            "  set-fit <component> <fit>          edit: component FIT\n"
            "  rewire <parent> <src-io> <dst-io>  edit: add a connection\n"
            "  add-failure-mode <component> <name> <distribution> <nature>\n"
            "  deploy-sm <component> <name> <coverage> <cost-hours> [<failure-mode>]\n"
            "  impact <component>                 change-impact report\n"
            "  campaign <model.mdl> <reliability-dir> [<journal> [<heartbeat>]]\n"
            "      journal-backed fault-injection campaign on a circuit model;\n"
            "      progress heartbeat JSON lands next to the journal (or at\n"
            "      <heartbeat>), watchable live via `same status`\n"
            "      (resumes from <journal> when it holds a compatible run)\n"
            "  pareto <catalogue> [<epsilon>]     (cost, SPFM) deployment front as CSV\n"
            "  fta [<mission-hours> [<max-order>]]  ZBDD fault tree of the root:\n"
            "      cut sets, exact top-event probability, importance, LFM\n"
            "      (reply cached on the root subtree fingerprint)\n"
            "  reanalyze [--verify]               incremental FMEA + stats; --verify\n"
            "      re-hashes the whole model and reports unannounced edits\n"
            "  table                              last FMEDA table\n"
            "  result                             last SPFM / ASIL\n"
            "  metrics                            Prometheus-style instrumentation dump\n"
            "  stats                              cumulative session stats\n"
            "  save <model.ssam>                  persist the model\n"
            "  save-cache [<path>] / load-cache [<path>]   default: the --cache path\n"
            "  quit\n";
  }

  void cmd_load(const std::vector<std::string>& tokens) {
    expect_arity(tokens, 3, "load <model.ssam> <component>");
    load(tokens[1], tokens[2]);
  }

  void cmd_set_fit(const std::vector<std::string>& tokens) {
    expect_arity(tokens, 3, "set-fit <component> <fit>");
    const ObjectId component = component_named(tokens[1]);
    const double fit = parse_double(tokens[2]);
    core::check_fit(fit, tokens[1]);
    model_->obj(component).set_real("fit", fit);
    session_->note_edit(component);
    out_ << "fit(" << tokens[1] << ") = " << tokens[2] << "\n";
  }

  void cmd_rewire(const std::vector<std::string>& tokens) {
    expect_arity(tokens, 4, "rewire <parent> <source-io> <target-io>");
    const ObjectId parent = component_named(tokens[1]);
    model_->connect(parent, io_node_named(tokens[2]), io_node_named(tokens[3]));
    session_->note_edit(parent);
    out_ << "wired " << tokens[2] << " -> " << tokens[3] << " in " << tokens[1] << "\n";
  }

  void cmd_add_failure_mode(const std::vector<std::string>& tokens) {
    expect_arity(tokens, 5, "add-failure-mode <component> <name> <distribution> <nature>");
    const ObjectId component = component_named(tokens[1]);
    model_->add_failure_mode(component, tokens[2], parse_double(tokens[3]), tokens[4]);
    session_->note_edit(component);
    out_ << "failure mode '" << tokens[2] << "' added to " << tokens[1] << "\n";
  }

  void cmd_deploy_sm(const std::vector<std::string>& tokens) {
    if (tokens.size() != 5 && tokens.size() != 6) {
      throw ModelError(
          "usage: deploy-sm <component> <name> <coverage> <cost-hours> [<failure-mode>]");
    }
    const ObjectId component = component_named(tokens[1]);
    ObjectId covers = model::kNullObject;
    if (tokens.size() == 6) {
      for (const ObjectId fm : model_->obj(component).refs("failureModes")) {
        if (model_->obj(fm).get_string("name") == tokens[5]) covers = fm;
      }
      if (covers == model::kNullObject) {
        throw ModelError("no failure mode named '" + tokens[5] + "' on '" + tokens[1] + "'");
      }
    }
    model_->add_safety_mechanism(component, tokens[2], parse_double(tokens[3]),
                                 parse_double(tokens[4]), covers);
    session_->note_edit(component);
    out_ << "mechanism '" << tokens[2] << "' deployed on " << tokens[1] << "\n";
  }

  void cmd_impact(const std::vector<std::string>& tokens) {
    expect_arity(tokens, 2, "impact <component>");
    const core::ImpactReport report =
        core::impact_of_change(*model_, component_named(tokens[1]));
    out_ << report.to_text(*model_);
  }

  /// Journal-backed circuit campaign, independent of the resident SSAM
  /// session: it touches neither model_ nor the result cache, so an ongoing
  /// incremental-analysis session (reanalyze etc.) is unaffected by
  /// campaigns run through the same service.
  void cmd_campaign(const std::vector<std::string>& tokens) {
    if (tokens.size() < 3 || tokens.size() > 5) {
      throw ModelError("usage: campaign <model.mdl> <reliability-dir> [<journal> [<heartbeat>]]");
    }
    const auto mdl = drivers::parse_mdl_file(tokens[1]);
    const auto built = sim::build_circuit(mdl);
    const auto workbook = drivers::DriverRegistry::global().open(tokens[2]);
    const auto reliability = core::ReliabilityModel::from_source(*workbook, "Reliability");
    core::CircuitFmeaOptions options;
    options.jobs = analysis_.jobs;
    if (tokens.size() >= 4) options.execution.journal_path = tokens[3];
    if (tokens.size() == 5) options.execution.heartbeat_path = tokens[4];
    // Announce the heartbeat before the (long) run so a client watching the
    // stream knows where `same status` can observe the campaign live.
    const std::string heartbeat = options.execution.published_heartbeat_path();
    if (!heartbeat.empty()) {
      out_ << "heartbeat " << heartbeat << "\n";
      out_.flush();
    }
    const core::FmedaResult result =
        core::analyze_circuit(built, reliability, nullptr, options);
    out_ << "campaign " << result.outcome_summary() << "\n";
    out_ << "rows " << result.rows.size() << " spfm " << format_percent(result.spfm())
         << " " << core::achieved_asil(result.spfm()) << " warnings "
         << result.warnings.size() << "\n";
  }

  /// Safety-mechanism Pareto front on the session's current analysis,
  /// rendered through the exact same front_to_csv as `same sm-search`, so
  /// both surfaces emit identical artefacts for the same model state.
  void cmd_pareto(const std::vector<std::string>& tokens) {
    if (tokens.size() != 2 && tokens.size() != 3) {
      throw ModelError("usage: pareto <catalogue> [<epsilon>]");
    }
    AnalysisSession& session = require_session();
    if (!session.has_result()) cmd_reanalyze({"reanalyze"});  // the front needs an FMEA
    const auto catalogue = core::SafetyMechanismModel::load_catalogue(tokens[1]);
    core::ParetoOptions options;
    options.jobs = analysis_.jobs;
    if (tokens.size() == 3) options.epsilon = parse_double(tokens[2]);
    const auto front = core::pareto_front(session.last_result(), catalogue, options);
    out_ << write_csv(core::front_to_csv(session.last_result(), front));
    out_ << "front: " << front.size() << " deployment(s)\n";
  }

  /// ZBDD fault-tree analysis of the session root: minimal cut sets, exact
  /// quantification and the ISO 26262 latent/multi-point classification
  /// against the session's FMEA. The rendered reply is cached on the root's
  /// *subtree fingerprint* (plus the request parameters), so repeated
  /// requests on an unchanged model replay without re-synthesising — the
  /// same invalidation discipline as the per-unit FMEA cache.
  void cmd_fta(const std::vector<std::string>& tokens) {
    if (tokens.size() > 3) throw ModelError("usage: fta [<mission-hours> [<max-order>]]");
    // fta::quantify rejects a negative or non-finite mission time.
    const double mission = tokens.size() > 1 ? parse_double(tokens[1]) : 10000.0;
    const size_t max_order = tokens.size() > 2 ? parse_count(tokens[2]) : 0;
    AnalysisSession& session = require_session();
    if (!session.has_result()) cmd_reanalyze({"reanalyze"});  // the LFM needs an FMEA

    auto& registry = obs::Registry::global();
    const ModelFingerprints& fps = session.fingerprints();
    const std::string key = to_hex(fps.subtree.at(session.root())) + "|" +
                            format_number(mission, 6) + "|" + std::to_string(max_order);
    if (const auto it = fta_replies_.find(key); it != fta_replies_.end()) {
      registry.counter("decisive_fta_request_cache_hits_total").add();
      out_ << it->second;
      return;
    }
    registry.counter("decisive_fta_request_cache_misses_total").add();

    const auto tree =
        fta::synthesize_fault_tree_zbdd(*model_, session.root(), {.max_order = max_order});
    const auto quant = fta::quantify(tree, mission);
    const auto lfm = fta::classify_latent(*model_, tree, session.last_result());
    char line[160];
    std::snprintf(line, sizeof line,
                  "cut-sets %zu exact %.6e rare-event %.6e mission %.0fh\n",
                  tree.cut_sets.size(), quant.exact_probability, quant.rare_event_bound,
                  mission);
    std::string reply = tree.to_text() + std::string(line);
    for (const auto& imp : quant.importance) {
      std::snprintf(line, sizeof line, "importance %s birnbaum %.4e fv %.4f raw %.3f rrw %s\n",
                    imp.label.c_str(), imp.birnbaum, imp.fussell_vesely, imp.raw,
                    imp.indispensable ? "inf" : format_number(imp.rrw, 3).c_str());
      reply += line;
    }
    reply += lfm.to_text();
    // The cache is fingerprint-keyed, so entries for edited models are never
    // replayed — they are merely dead. Bound the footprint anyway.
    if (fta_replies_.size() >= 64) fta_replies_.clear();
    fta_replies_.emplace(key, reply);
    out_ << reply;
  }

  void cmd_reanalyze(const std::vector<std::string>& tokens) {
    const bool verify = tokens.size() == 2 && tokens[1] == "--verify";
    if (tokens.size() > 2 || (tokens.size() == 2 && !verify)) {
      throw ModelError("usage: reanalyze [--verify]");
    }
    AnalysisSession& session = require_session();
    const core::FmedaResult& result =
        verify ? session.reanalyze_verified() : session.reanalyze();
    const AnalysisSession::Stats& stats = session.last_stats();
    ServiceMetrics& metrics = ServiceMetrics::get();
    metrics.spfm.set(result.spfm());
    metrics.rows.set(static_cast<double>(result.rows.size()));
    metrics.cache_entries.set(static_cast<double>(session.cache().size()));
    if (stats.short_circuited) out_ << "short-circuit (model unchanged)\n";
    out_ << "rows " << result.rows.size() << " spfm " << format_percent(result.spfm()) << " "
         << result.asil_label() << "\n";
    out_ << "units " << stats.units << " hits " << stats.cache_hits << " misses "
         << stats.cache_misses << " hit-rate " << format_percent(stats.hit_rate()) << "\n";
    out_ << "dirty changed " << stats.changed_components << " widened "
         << stats.widened_components << "\n";
    if (verify) out_ << "verify unannounced " << stats.unannounced_components << "\n";
    out_ << "time fingerprint " << format_ms(stats.fingerprint_seconds) << " analyze "
         << format_ms(stats.analyze_seconds) << " total " << format_ms(stats.total_seconds)
         << "\n";
  }

  void cmd_table() {
    if (!require_session().has_result()) throw ModelError("no analysis yet (use: reanalyze)");
    out_ << session_->last_result().to_text().render() << "\n";
    for (const auto& warning : session_->last_result().warnings) {
      out_ << "note: " << warning << "\n";
    }
  }

  void cmd_result() {
    if (!require_session().has_result()) throw ModelError("no analysis yet (use: reanalyze)");
    const core::FmedaResult& result = session_->last_result();
    out_ << "spfm " << format_percent(result.spfm()) << "\n";
    out_ << "asil " << result.asil_label() << "\n";
    out_ << "rows " << result.rows.size() << " safety-related "
         << result.safety_related_components().size() << " warnings "
         << result.warnings.size() << "\n";
  }

  void cmd_metrics() {
    if (session_.has_value()) {
      ServiceMetrics::get().cache_entries.set(static_cast<double>(session_->cache().size()));
    }
    out_ << obs::Registry::global().to_prometheus();
  }

  void cmd_stats() {
    auto& registry = obs::Registry::global();
    const std::uint64_t hits = registry.counter("decisive_session_cache_hits_total").value();
    const std::uint64_t misses =
        registry.counter("decisive_session_cache_misses_total").value();
    out_ << "requests " << ServiceMetrics::get().requests.value() << " reanalyses "
         << registry.counter("decisive_session_reanalyses_total").value() << " model-loads "
         << ServiceMetrics::get().model_loads.value() << "\n";
    out_ << "cache entries " << (session_.has_value() ? session_->cache().size() : 0)
         << " cumulative-hit-rate "
         << format_percent(hits + misses == 0
                               ? 0.0
                               : static_cast<double>(hits) /
                                     static_cast<double>(hits + misses))
         << "\n";
  }

  void cmd_save(const std::vector<std::string>& tokens) {
    expect_arity(tokens, 2, "save <model.ssam>");
    require_session();
    model::save_xmi_file(tokens[1], model_->repo(), model_->meta());
    out_ << "model saved to " << tokens[1] << "\n";
  }

  /// The explicit argument wins; without one, fall back to the --cache path
  /// the service was started with.
  std::string cache_path_from(const std::vector<std::string>& tokens, const char* usage) {
    if (tokens.size() == 1 && !default_cache_path_.empty()) return default_cache_path_;
    if (tokens.size() != 2) throw ModelError(std::string("usage: ") + usage);
    return tokens[1];
  }

  void cmd_save_cache(const std::vector<std::string>& tokens) {
    const std::string path =
        cache_path_from(tokens, "save-cache <path> (no default: started without --cache)");
    require_session().cache().save_file(path);
    out_ << "cache saved to " << path << " (" << session_->cache().size() << " entries)\n";
  }

  void cmd_load_cache(const std::vector<std::string>& tokens) {
    load_cache(cache_path_from(tokens, "load-cache <path> (no default: started without --cache)"));
  }

  std::ostream& out_;
  core::GraphFmeaOptions analysis_;
  std::string default_cache_path_;
  std::unique_ptr<SsamModel> model_;
  std::optional<AnalysisSession> session_;
  /// Rendered `fta` replies keyed on (root subtree fingerprint, mission,
  /// max-order) — see cmd_fta.
  std::map<std::string, std::string> fta_replies_;
};

}  // namespace

int run_service(std::istream& in, std::ostream& out, const ServiceOptions& options) {
  Service service(out, options.analysis, options.cache_path);
  if (!options.model_path.empty()) {
    try {
      service.load(options.model_path, options.component);
      if (!options.cache_path.empty()) service.load_cache(options.cache_path);
    } catch (const Error& error) {
      obs::log(obs::LogLevel::Error,
               std::string("session initial load failed: ") + error.what());
      out << "error: " << error.what() << "\n";
      return 2;
    }
  }
  out << "same session ready\n";
  out.flush();
  std::string line;
  while (std::getline(in, line)) {
    if (!service.handle(line)) break;
  }
  return 0;
}

}  // namespace decisive::session
