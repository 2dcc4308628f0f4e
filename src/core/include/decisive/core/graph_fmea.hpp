// Automated FMEA on SSAM models — the paper's Algorithm 1.
//
// For every subcomponent c of the component under analysis, and every
// failure mode fm of c:
//   - if fm is of loss-of-function (or similar) nature: fm is a single-point
//     failure (safety-related) iff c lies on *all* input→output paths of the
//     parent component;
//   - otherwise a warning is emitted (line 11 of Algorithm 1) — unless the
//     modeller supplied explicit `affectedComponents` traceability (Figure
//     9), in which case the failure mode is safety-related iff one of the
//     affected components lies on all paths (or is the parent itself).
// The algorithm then recurses into composite subcomponents.
//
// The "lies on all paths" decision runs on ssam::SinglePointAnalysis — a
// dominator/cut analysis that never materialises paths, so dense components
// no longer abort with a path-explosion error. The per-component analyses of
// the recursive walk are independent const reads of the model and run on a
// thread pool (`jobs`); rows, warnings and model write-backs are emitted by a
// serial walk afterwards, so the output is byte-identical for any job count.
//
// The analysis also *writes back* its verdicts: each FailureMode's
// `safetyRelated` attribute is set, and a FailureEffect child with the
// DVF/IVF classification is attached — the "component safety analysis
// model" artefact of DECISIVE Step 4a. Re-running updates the previously
// attached effect in place, so the iterative DECISIVE loop does not
// accumulate duplicates.
#pragma once

#include "decisive/core/fmeda.hpp"
#include "decisive/core/safety_mechanism.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::core {

struct GraphFmeaOptions {
  /// Worker threads for the per-component analyses (0 = hardware
  /// concurrency). Output is identical for any value.
  int jobs = 1;
  /// When true, deploy each failure mode's highest-coverage SafetyMechanism
  /// already modelled on its component (SSAM-side Step 4b).
  bool apply_modelled_mechanisms = true;
  /// Flight-recorder heartbeat JSON for the scaled analysis ("" = disabled);
  /// ticked once per analysis unit, folded by `same status` like the
  /// campaign heartbeats (obs/progress.hpp).
  std::string heartbeat_path;
  /// Minimum seconds between heartbeat writes (0 = publish on every unit).
  double heartbeat_interval_seconds = 1.0;
};

// ---------------------------------------------------------------------------
// Incremental re-analysis hooks (consumed by decisive::session)
// ---------------------------------------------------------------------------

/// One failure-mode verdict write-back, recorded so a cached unit can replay
/// its model mutations without re-running the analysis.
struct UnitVerdict {
  ssam::ObjectId failure_mode = model::kNullObject;
  bool safety_related = false;
  EffectClass effect = EffectClass::None;
};

/// Everything Algorithm 1 emits for one direct subcomponent of a unit: the
/// FMEDA rows, the diagnostics, and the verdict write-backs — in emission
/// order.
struct UnitSubRecord {
  ssam::ObjectId sub = model::kNullObject;
  std::vector<FmedaRow> rows;
  std::vector<std::string> warnings;
  std::vector<UnitVerdict> verdicts;
};

/// The complete recorded output of one analysis unit — a composite component
/// the recursive walk visits. Replaying the records of every unit, in walk
/// order, reproduces a cold run byte for byte.
struct UnitRecord {
  ssam::ObjectId component = model::kNullObject;
  std::string path;  ///< qualified path from the analysis root
  std::vector<UnitSubRecord> subs;
};

/// Result-cache interface consumed by analyze_component. For every unit the
/// walk visits, lookup() is consulted first: a non-null record is replayed
/// verbatim (graph construction and the single-point analysis are skipped);
/// on nullptr the unit is analysed fresh and store() receives the record.
/// Implementations decide validity — decisive::session keys entries by
/// content fingerprints so a stale record is never returned. Returned
/// pointers must stay valid until analyze_component returns.
class UnitResultCache {
 public:
  virtual ~UnitResultCache() = default;
  [[nodiscard]] virtual const UnitRecord* lookup(ssam::ObjectId component,
                                                 const std::string& path) = 0;
  virtual void store(UnitRecord record) = 0;
};

/// Observability of one analyze_component run.
struct GraphFmeaStats {
  size_t units = 0;        ///< composite components the walk visited
  size_t cache_hits = 0;   ///< units replayed from the cache
  size_t cache_misses = 0; ///< units analysed fresh
  double collect_seconds = 0.0;  ///< phase A: unit enumeration
  double analyze_seconds = 0.0;  ///< phase B: graph + single-point analyses
  double emit_seconds = 0.0;     ///< phase C: row emission / cache replay

  /// Fraction of units served from the cache (0 when no units).
  [[nodiscard]] double hit_rate() const noexcept {
    return units == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(units);
  }
};

/// Where every sub record of one emitted FMEDA landed, in emission order.
/// analyze_component fills it on request; reanalyze_component reads and
/// updates it, so a caller that keeps its last result re-emits only the
/// units whose inputs changed.
struct EmitLayout {
  /// One (unit, subcomponent) record: the unit's index in `units`, the
  /// subcomponent, and the end offsets of its rows and warnings.
  struct Slot {
    size_t unit = 0;
    ssam::ObjectId sub = model::kNullObject;
    size_t rows_end = 0;
    size_t warnings_end = 0;
  };
  std::vector<ssam::ObjectId> units;  ///< analysis units in walk pre-order
  std::vector<Slot> slots;            ///< every sub record, in emission order
};

/// Runs Algorithm 1 on `component` (a composite SSAM Component). Mutates the
/// model: failure modes get their `safetyRelated` verdict and a
/// FailureEffect. Throws AnalysisError when the component has no boundary
/// IONodes or an IONode carries an invalid `direction`.
///
/// `cache` (optional) serves per-unit results across runs — see
/// UnitResultCache; the output is byte-identical with or without it as long
/// as the cache only returns records valid for the current model state.
/// `stats` (optional) receives per-phase timings and hit counts. `layout`
/// (optional) receives where each sub record landed in the result.
FmedaResult analyze_component(ssam::SsamModel& ssam, ssam::ObjectId component,
                              const GraphFmeaOptions& options = {},
                              UnitResultCache* cache = nullptr, GraphFmeaStats* stats = nullptr,
                              EmitLayout* layout = nullptr);

/// analyze_component for a caller that keeps its last result: `result` and
/// `layout` must be the output of this caller's previous run on this model,
/// with every write-back of that run still in place. A unit the cache serves
/// is taken as unchanged since that run — its rows and warnings stay where
/// they are and its write-backs are not repeated — so the cache must decline
/// every unit whose record may have changed. Only the declined units are
/// analysed, emitted, written back and spliced in, in walk order. When the
/// unit list, or the subcomponents of a declined unit, differ from the
/// layout, this falls back to the full walk. The result is byte-identical to
/// analyze_component on the same model state either way.
void reanalyze_component(ssam::SsamModel& ssam, ssam::ObjectId component,
                         const GraphFmeaOptions& options, UnitResultCache& cache,
                         FmedaResult& result, EmitLayout& layout,
                         GraphFmeaStats* stats = nullptr);

}  // namespace decisive::core
