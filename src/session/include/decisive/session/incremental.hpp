// Incremental re-analysis engine: the DECISIVE edit→re-analyze loop, hot.
//
// AnalysisSession owns the iteration state for one (model, root component)
// pair: a fingerprint snapshot it keeps current, the fingerprint-keyed
// result cache, the edit log, and the last FMEDA with the layout of its
// rows. One turn costs O(edit), apart from rendering the FMEDA:
//
//   1. The edit log is the dirty seed. note_edit(c) records c; reanalyze()
//      re-fingerprints the subtree of each logged component and the unit of
//      its parent (refresh_fingerprints), and reports the units whose unit
//      fingerprint moved as `changed_components`. An empty log replays the
//      previous result in O(1).
//   2. The seeds (moved units plus the logged components) are widened along
//      impact_of_change's traceability rules: containment ancestors and
//      signal neighbours must be revisited (paper Section III's
//      change-management requirement). Those components, and the units
//      analysing them, are dirty.
//   3. Only the dirty units are analysed, emitted, written back and spliced
//      into the previous result (core::reanalyze_component); clean units
//      keep their rows and their write-backs. The first run, and a run whose
//      unit list changed, take the full walk instead.
//
// The result is byte-identical to a cold full run as long as every edit is
// announced. The contract: after editing the model, call note_edit on the
// component whose own attributes (name, blockType, FIT), failure modes,
// safety mechanisms, IONodes, wiring (relationships) or subcomponent list
// changed — the component a `same session` edit command names. Containment
// must stay a tree. The full fingerprint pass runs only on the first
// reanalyze(), after the cache is replaced (clear, load_file), and in
// reanalyze_verified(), which also catches edits that were not announced.
#pragma once

#include <set>

#include "decisive/core/graph_fmea.hpp"
#include "decisive/session/cache.hpp"
#include "decisive/session/fingerprint.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::session {

class AnalysisSession {
 public:
  /// Binds the session to a loaded model and the component under analysis.
  /// The model must outlive the session; every edit between reanalyze()
  /// calls must be announced with note_edit (see the contract above).
  AnalysisSession(ssam::SsamModel& model, ssam::ObjectId root,
                  core::GraphFmeaOptions options = {});

  /// Per-request observability of one reanalyze() call.
  struct Stats {
    size_t units = 0;               ///< composite components visited
    size_t cache_hits = 0;          ///< units replayed from the cache
    size_t cache_misses = 0;        ///< units analysed fresh
    size_t changed_components = 0;  ///< units whose unit fingerprint moved
    size_t widened_components = 0;  ///< extra dirt added by impact_of_change
    /// reanalyze_verified only: moved units the edit log did not announce.
    size_t unannounced_components = 0;
    bool full_fingerprint_pass = false;  ///< this call re-hashed the whole model
    bool short_circuited = false;   ///< nothing announced: replayed last result
    double fingerprint_seconds = 0.0;
    double analyze_seconds = 0.0;  ///< full analyze_component wall time
    double total_seconds = 0.0;

    [[nodiscard]] double hit_rate() const noexcept {
      return units == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(units);
    }
  };

  /// Announces that `component` was edited (required — see the contract
  /// above). Components outside the analysed subtree are ignored.
  void note_edit(ssam::ObjectId component);

  /// Incremental re-analysis; returns the new FMEDA (byte-identical to a
  /// cold run on the current model state when every edit was announced).
  const core::FmedaResult& reanalyze();

  /// reanalyze() plus a full fingerprint pass diffed against the maintained
  /// snapshot: units whose fingerprint moved without an announcement are
  /// seeded too (and counted in Stats::unannounced_components), so the
  /// result is byte-identical to a cold run even after silent edits.
  const core::FmedaResult& reanalyze_verified();

  /// Cache-bypassing full analysis of the current model state — the oracle
  /// the incremental path is property-tested against. Does not touch the
  /// cache or the session's fingerprint snapshot.
  [[nodiscard]] core::FmedaResult cold_analyze() const;

  /// The maintained fingerprint snapshot, brought up to date with the
  /// announced edits (a full pass when the session has none yet).
  const ModelFingerprints& fingerprints();

  [[nodiscard]] const core::FmedaResult& last_result() const noexcept { return last_result_; }
  [[nodiscard]] bool has_result() const noexcept { return has_result_; }
  [[nodiscard]] const Stats& last_stats() const noexcept { return last_stats_; }
  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }
  [[nodiscard]] ssam::ObjectId root() const noexcept { return root_; }
  [[nodiscard]] const core::GraphFmeaOptions& options() const noexcept { return options_; }

 private:
  const core::FmedaResult& run(bool verify);
  /// Folds the edit log into the snapshot; moved units join pending_changed_.
  void refresh();
  void full_pass();

  ssam::SsamModel& model_;
  ssam::ObjectId root_;
  core::GraphFmeaOptions options_;

  ResultCache cache_;
  std::uint64_t cache_generation_ = 0;  ///< cache_.generation() at the last run
  ModelFingerprints fingerprints_;
  bool has_fingerprints_ = false;
  std::set<ssam::ObjectId> edits_;  ///< announced since the last successful run
  /// Units whose fingerprint moved since the last successful run.
  std::set<ssam::ObjectId> pending_changed_;

  core::FmedaResult last_result_;
  core::EmitLayout layout_;
  bool has_result_ = false;
  Stats last_stats_;
};

}  // namespace decisive::session
