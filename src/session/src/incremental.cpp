#include "decisive/session/incremental.hpp"

#include <chrono>

#include "decisive/obs/registry.hpp"
#include "decisive/obs/span.hpp"

namespace decisive::session {

using ssam::ObjectId;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Session-layer instrumentation, cached once per process.
struct SessionMetrics {
  obs::Counter& reanalyses;
  obs::Counter& short_circuits;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& invalidations;
  obs::Counter& full_fingerprint_passes;
  obs::Histogram& dirty_components;
  obs::Histogram& fingerprint_seconds;
  obs::Histogram& reanalyze_seconds;

  static SessionMetrics& get() {
    auto& registry = obs::Registry::global();
    static SessionMetrics metrics{
        registry.counter("decisive_session_reanalyses_total"),
        registry.counter("decisive_session_short_circuits_total"),
        registry.counter("decisive_session_cache_hits_total"),
        registry.counter("decisive_session_cache_misses_total"),
        registry.counter("decisive_session_invalidations_total"),
        registry.counter("decisive_session_full_fingerprint_passes_total"),
        registry.histogram("decisive_session_dirty_components",
                           {0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 100.0, 1000.0, 10000.0}),
        registry.histogram("decisive_session_fingerprint_seconds"),
        registry.histogram("decisive_session_reanalyze_seconds")};
    return metrics;
  }
};

}  // namespace

AnalysisSession::AnalysisSession(ssam::SsamModel& model, ObjectId root,
                                 core::GraphFmeaOptions options)
    : model_(model), root_(root), options_(std::move(options)) {}

void AnalysisSession::note_edit(ObjectId component) { edits_.insert(component); }

core::FmedaResult AnalysisSession::cold_analyze() const {
  return core::analyze_component(model_, root_, options_);
}

void AnalysisSession::full_pass() {
  SessionMetrics::get().full_fingerprint_passes.add();
  fingerprints_ = fingerprint_model(model_, root_, options_);
  has_fingerprints_ = true;
}

void AnalysisSession::refresh() {
  if (!has_fingerprints_) {
    full_pass();
    return;
  }
  if (edits_.empty()) return;
  for (const ObjectId moved : refresh_fingerprints(fingerprints_, model_, options_, edits_)) {
    pending_changed_.insert(moved);
  }
}

const ModelFingerprints& AnalysisSession::fingerprints() {
  refresh();
  return fingerprints_;
}

const core::FmedaResult& AnalysisSession::reanalyze() { return run(false); }

const core::FmedaResult& AnalysisSession::reanalyze_verified() { return run(true); }

const core::FmedaResult& AnalysisSession::run(bool verify) {
  SessionMetrics& metrics = SessionMetrics::get();
  metrics.reanalyses.add();
  obs::Span reanalyze_span("session.reanalyze", &metrics.reanalyze_seconds);
  const auto total_start = std::chrono::steady_clock::now();
  const size_t previous_units = last_stats_.units;
  last_stats_ = Stats{};

  // The dirty seed comes from the edit log: refresh re-fingerprints only what
  // was announced (nothing at all when the log is empty). The full pass runs
  // when there is no snapshot yet, and — diffed against the maintained
  // snapshot — when verifying or after the cache was replaced.
  const auto fp_start = std::chrono::steady_clock::now();
  {
    obs::Span fingerprint_span("session.fingerprint", &metrics.fingerprint_seconds);
    const bool had_fingerprints = has_fingerprints_;
    refresh();
    last_stats_.full_fingerprint_pass = !had_fingerprints;
    if (had_fingerprints && (verify || cache_.generation() != cache_generation_)) {
      metrics.full_fingerprint_passes.add();
      ModelFingerprints fresh = fingerprint_model(model_, root_, options_);
      const std::vector<ObjectId> missed = fingerprint_diff(fingerprints_, fresh);
      last_stats_.unannounced_components = missed.size();
      pending_changed_.insert(missed.begin(), missed.end());
      fingerprints_ = std::move(fresh);
      last_stats_.full_fingerprint_pass = true;
    }
  }
  last_stats_.fingerprint_seconds = seconds_since(fp_start);

  // The seeds: units whose fingerprint moved, plus announced edits.
  last_stats_.changed_components = pending_changed_.size();
  std::set<ObjectId> seeds = pending_changed_;
  for (const ObjectId edit : edits_) {
    if (fingerprints_.unit.contains(edit)) seeds.insert(edit);
  }

  // Hot path: nothing changed under the root and nothing was announced —
  // replay the previous result without touching the analysis.
  if (has_result_ && seeds.empty()) {
    last_stats_.short_circuited = true;
    last_stats_.units = last_stats_.cache_hits = previous_units;
    last_stats_.total_seconds = seconds_since(total_start);
    metrics.short_circuits.add();
    metrics.cache_hits.add(previous_units);
    metrics.dirty_components.observe(0.0);
    edits_.clear();
    cache_generation_ = cache_.generation();
    return last_result_;
  }

  // Widen the dirty set along impact_of_change's traceability rules:
  // containment ancestors re-embed the changed component's analysis, and
  // signal neighbours share cut sets with it (paper Section III / ISO 26262
  // Clause 8 change management). Both legs are kept in the snapshot (parent
  // chain + signal adjacency), so widening costs O(dirty) instead of a
  // repository scan per seed — the report-facing core::impact_of_change
  // computes the identical sets from the live model.
  std::set<ObjectId> forced = seeds;
  for (const ObjectId seed : seeds) {
    for (auto parent = fingerprints_.parent.find(seed); parent != fingerprints_.parent.end();
         parent = fingerprints_.parent.find(parent->second)) {
      forced.insert(parent->second);
    }
    const auto neighbours = fingerprints_.neighbours.find(seed);
    if (neighbours == fingerprints_.neighbours.end()) continue;
    forced.insert(neighbours->second.begin(), neighbours->second.end());
  }
  last_stats_.widened_components = forced.size() - seeds.size();
  metrics.dirty_components.observe(static_cast<double>(seeds.size()));
  metrics.invalidations.add(forced.size());

  // A unit's verdicts embed its direct subcomponents' failure surface, so a
  // dirty component also dirties the unit analysing it.
  std::set<ObjectId> dirty_units = forced;
  for (const ObjectId component : forced) {
    const auto parent = fingerprints_.parent.find(component);
    if (parent != fingerprints_.parent.end()) dirty_units.insert(parent->second);
  }

  // Re-emit only the dirty units into the previous result; the first run
  // walks everything.
  const auto analyze_start = std::chrono::steady_clock::now();
  cache_.bind(&fingerprints_, &dirty_units);
  core::GraphFmeaStats graph_stats;
  try {
    if (has_result_) {
      core::reanalyze_component(model_, root_, options_, cache_, last_result_, layout_,
                                &graph_stats);
    } else {
      last_result_ =
          core::analyze_component(model_, root_, options_, &cache_, &graph_stats, &layout_);
    }
  } catch (...) {
    // The edit log and the moved units stay pending for the next run, which
    // takes the full walk.
    cache_.bind(nullptr, nullptr);
    layout_ = core::EmitLayout{};
    throw;
  }
  cache_.bind(nullptr, nullptr);
  last_stats_.analyze_seconds = seconds_since(analyze_start);
  last_stats_.units = graph_stats.units;
  last_stats_.cache_hits = graph_stats.cache_hits;
  last_stats_.cache_misses = graph_stats.cache_misses;
  metrics.cache_hits.add(graph_stats.cache_hits);
  metrics.cache_misses.add(graph_stats.cache_misses);

  has_result_ = true;
  edits_.clear();
  pending_changed_.clear();
  cache_generation_ = cache_.generation();
  last_stats_.total_seconds = seconds_since(total_start);
  return last_result_;
}

}  // namespace decisive::session
