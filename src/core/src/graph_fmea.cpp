#include "decisive/core/graph_fmea.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/core/fta.hpp"
#include "decisive/obs/progress.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/span.hpp"
#include "decisive/ssam/graph.hpp"

namespace decisive::core {

namespace {

using ssam::ObjectId;
using ssam::SsamModel;

/// Graph-FMEA instrumentation, cached once per process.
struct GraphFmeaMetrics {
  obs::Counter& runs;
  obs::Counter& units;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& emitted_rows;
  obs::Histogram& collect_seconds;
  obs::Histogram& analyze_seconds;
  obs::Histogram& emit_seconds;
  obs::Histogram& unit_seconds;

  static GraphFmeaMetrics& get() {
    auto& registry = obs::Registry::global();
    static GraphFmeaMetrics metrics{
        registry.counter("decisive_graph_fmea_runs_total"),
        registry.counter("decisive_graph_fmea_units_total"),
        registry.counter("decisive_graph_fmea_unit_cache_hits_total"),
        registry.counter("decisive_graph_fmea_unit_cache_misses_total"),
        registry.counter("decisive_graph_fmea_emitted_rows_total"),
        registry.histogram("decisive_graph_fmea_collect_seconds"),
        registry.histogram("decisive_graph_fmea_analyze_seconds"),
        registry.histogram("decisive_graph_fmea_emit_seconds"),
        registry.histogram("decisive_graph_fmea_unit_seconds")};
    return metrics;
  }
};

/// The highest-coverage SafetyMechanism modelled on `component` that covers
/// `failure_mode` (an SM with no `covers` targets covers every mode of its
/// component).
struct ModelledSm {
  std::string name;
  double coverage = 0.0;
  double cost_hours = 0.0;
};

std::optional<ModelledSm> best_modelled_sm(const SsamModel& ssam, ObjectId component,
                                           ObjectId failure_mode) {
  std::optional<ModelledSm> best;
  for (const ObjectId sm : ssam.obj(component).refs("safetyMechanisms")) {
    const auto& sm_obj = ssam.obj(sm);
    const auto& covers = sm_obj.refs("covers");
    const bool applies =
        covers.empty() || std::find(covers.begin(), covers.end(), failure_mode) != covers.end();
    if (!applies) continue;
    const double coverage = sm_obj.get_real("coverage");
    if (!best.has_value() || coverage > best->coverage) {
      best = ModelledSm{sm_obj.get_string("name"), coverage, sm_obj.get_real("costHours")};
    }
  }
  return best;
}

/// Sets (or refreshes) the auto-attached FailureEffect of a failure mode.
/// Idempotent: re-running the analysis updates the effect created by a
/// previous run instead of accumulating duplicates on the model.
void attach_effect(SsamModel& ssam, ObjectId failure_mode, EffectClass effect) {
  for (const ObjectId existing : ssam.obj(failure_mode).refs("effects")) {
    auto& fe = ssam.obj(existing);
    if (fe.get_string("name") == "effect") {
      fe.set_string("classification", std::string(to_string(effect)));
      return;
    }
  }
  auto& fe = ssam.repo().create(ssam.meta().get(ssam::cls::FailureEffect));
  fe.set_string("name", "effect");
  fe.set_string("classification", std::string(to_string(effect)));
  ssam.obj(failure_mode).add_ref("effects", fe.id());
}

/// One composite component the recursive walk analyses: the component plus
/// its qualified path from the analysis root.
struct Unit {
  ObjectId component = model::kNullObject;
  std::string path;
};

/// Per-unit result of the (parallelisable) analysis phase.
struct UnitAnalysis {
  std::optional<ssam::SinglePointAnalysis> analysis;
  std::exception_ptr error;
};

/// Phase A (serial): collect the analysis units in the exact pre-order the
/// recursive walk visits them. Iterative — nesting depth is bounded by heap.
std::vector<Unit> collect_units(const SsamModel& ssam, ObjectId root) {
  std::vector<Unit> units;
  if (ssam.obj(root).refs("subcomponents").empty()) return units;

  std::vector<Unit> stack{{root, ssam.obj(root).get_string("name")}};
  while (!stack.empty()) {
    Unit unit = std::move(stack.back());
    stack.pop_back();
    const auto& subs = ssam.obj(unit.component).refs("subcomponents");
    // Children in reverse so the LIFO pops them in declaration order.
    for (auto it = subs.rbegin(); it != subs.rend(); ++it) {
      const auto& sub_obj = ssam.obj(*it);
      if (sub_obj.refs("subcomponents").empty()) continue;
      if (sub_obj.refs("ioNodes").empty()) continue;  // warned about in phase C
      stack.push_back({*it, unit.path + "/" + sub_obj.get_string("name")});
    }
    units.push_back(std::move(unit));
  }
  return units;
}

/// Phase B: build each unit's graph and run the single-point analysis —
/// independent const reads of the model, safe to run on a pool. Units with a
/// cached record (`cached[i] != nullptr`) are skipped: their verdicts will be
/// replayed, so paying for the graph again would defeat the cache. Errors are
/// captured per unit; the caller rethrows the first one in walk order so
/// behaviour is deterministic for any job count.
std::vector<UnitAnalysis> analyze_units(const SsamModel& ssam, const std::vector<Unit>& units,
                                        const GraphFmeaOptions& options,
                                        const std::vector<const UnitRecord*>& cached) {
  std::vector<UnitAnalysis> analyses(units.size());
  std::vector<size_t> pending;
  pending.reserve(units.size());
  for (size_t i = 0; i < units.size(); ++i) {
    if (cached[i] == nullptr) pending.push_back(i);
  }

  unsigned jobs = options.jobs > 0 ? static_cast<unsigned>(options.jobs)
                                   : std::max(1u, std::thread::hardware_concurrency());
  const unsigned jobs_configured = jobs;
  if (pending.size() < jobs) jobs = static_cast<unsigned>(std::max<size_t>(pending.size(), 1));

  obs::ProgressReporterOptions reporter_options;
  reporter_options.path = options.heartbeat_path;
  reporter_options.phase = "graph-fmea";
  reporter_options.total = units.size();
  reporter_options.workers = static_cast<int>(jobs_configured);
  reporter_options.interval_seconds = options.heartbeat_interval_seconds;
  obs::ProgressReporter reporter(reporter_options);
  for (size_t i = 0; i < units.size(); ++i) {
    if (cached[i] != nullptr) reporter.task_done(0, "CacheHit");
  }

  const auto analyze_one = [&](size_t i, int worker_id) {
    obs::Span span("graph_fmea.unit", &GraphFmeaMetrics::get().unit_seconds);
    try {
      const ssam::ComponentGraph graph = ssam::build_graph(ssam, units[i].component);
      analyses[i].analysis.emplace(graph);
    } catch (...) {
      analyses[i].error = std::current_exception();
    }
    reporter.task_done(worker_id, analyses[i].error ? "Failed" : "Analyzed");
  };

  if (jobs <= 1) {
    for (const size_t i : pending) analyze_one(i, 0);
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&](int worker_id) {
      for (size_t p = next.fetch_add(1); p < pending.size(); p = next.fetch_add(1)) {
        analyze_one(pending[p], worker_id);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker, static_cast<int>(t));
    for (auto& thread : pool) thread.join();
  }
  reporter.finish();

  for (const auto& ua : analyses) {
    if (ua.error) std::rethrow_exception(ua.error);
  }
  return analyses;
}

/// Produces the record for one subcomponent of one unit (Algorithm 1 lines
/// 5–12): rows, warnings and verdict write-backs, in emission order. Pure
/// function of the model state — what the unit fingerprint covers — so the
/// record can be cached and replayed on a later run.
UnitSubRecord produce_sub_record(const SsamModel& ssam, const Unit& unit,
                                 const ssam::SinglePointAnalysis& analysis, ObjectId sub,
                                 const GraphFmeaOptions& options) {
  UnitSubRecord record;
  record.sub = sub;
  const std::string sub_name = ssam.obj(sub).get_string("name");
  const bool single_point = analysis.is_single_point(sub);

  const std::vector<ObjectId> failure_modes = ssam.obj(sub).refs("failureModes");
  for (const ObjectId fm : failure_modes) {
    FmedaRow row;
    row.component = sub_name;
    row.component_type = ssam.obj(sub).get_string("blockType", sub_name);
    row.component_id = sub;
    row.component_path = unit.path + "/" + sub_name;
    row.fit = ssam.obj(sub).get_real("fit");
    row.failure_mode = ssam.obj(fm).get_string("name");
    row.distribution = ssam.obj(fm).get_real("distribution");

    const std::string nature = ssam.obj(fm).get_string("nature");
    if (is_loss_failure_nature(nature)) {
      // Algorithm 1 lines 5–8.
      row.safety_related = single_point;
      row.effect = single_point ? EffectClass::DVF : EffectClass::None;
    } else {
      const std::vector<ObjectId> affected = ssam.obj(fm).refs("affectedComponents");
      if (!affected.empty()) {
        // Figure 9: explicit affected-component traceability lets the FMEA
        // infer single-point faults for non-loss modes.
        bool any_critical = false;
        for (const ObjectId target : affected) {
          if (target == unit.component || analysis.is_single_point(target)) {
            any_critical = true;
            break;
          }
        }
        row.safety_related = any_critical;
        row.effect = any_critical ? EffectClass::IVF : EffectClass::None;
      } else {
        // Algorithm 1 line 11.
        record.warnings.push_back("failure mode '" + row.failure_mode + "' of '" + sub_name +
                                  "' has nature '" + nature +
                                  "' and no affected-component traceability; manual review "
                                  "required");
      }
    }

    if (row.safety_related && options.apply_modelled_mechanisms) {
      if (const auto sm = best_modelled_sm(ssam, sub, fm)) {
        row.safety_mechanism = sm->name;
        row.sm_coverage = sm->coverage;
        row.sm_cost_hours = sm->cost_hours;
      }
    }

    record.verdicts.push_back({fm, row.safety_related, row.effect});
    record.rows.push_back(std::move(row));
  }

  // The walk-level diagnostic belongs to the sub record too, so a cached
  // replay reproduces it at the same position in the warning stream.
  if (!ssam.obj(sub).refs("subcomponents").empty() && ssam.obj(sub).refs("ioNodes").empty()) {
    record.warnings.push_back("composite subcomponent '" + sub_name +
                              "' has no IONodes; cannot recurse");
  }
  return record;
}

/// Writes one sub record's verdicts back into the model (component safety
/// analysis model, Step 4a output).
void write_back(SsamModel& ssam, const UnitSubRecord& record) {
  for (const UnitVerdict& verdict : record.verdicts) {
    ssam.obj(verdict.failure_mode).set_bool("safetyRelated", verdict.safety_related);
    attach_effect(ssam, verdict.failure_mode, verdict.effect);
  }
}

/// Applies one sub record: appends its rows/warnings to the result and
/// writes the verdicts back. Fresh, cached and spliced records all funnel
/// through the same record type, which is what makes incremental output
/// byte-identical by construction.
void apply_sub_record(SsamModel& ssam, const UnitSubRecord& record, FmedaResult& result) {
  result.rows.insert(result.rows.end(), record.rows.begin(), record.rows.end());
  result.warnings.insert(result.warnings.end(), record.warnings.begin(), record.warnings.end());
  write_back(ssam, record);
}

/// Replaces `count` items of `items` at `pos` with `replacement`.
template <typename T>
void splice_range(std::vector<T>& items, size_t pos, size_t count,
                  const std::vector<T>& replacement) {
  const size_t common = std::min(count, replacement.size());
  std::copy_n(replacement.begin(), common, items.begin() + static_cast<std::ptrdiff_t>(pos));
  const auto tail = items.begin() + static_cast<std::ptrdiff_t>(pos + common);
  if (replacement.size() > count) {
    items.insert(tail, replacement.begin() + static_cast<std::ptrdiff_t>(common),
                 replacement.end());
  } else {
    items.erase(tail, tail + static_cast<std::ptrdiff_t>(count - common));
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The records of one run: the units, which of them the cache serves, their
/// analyses, and the fresh records produced so far.
struct RunState {
  std::vector<Unit> units;
  std::vector<const UnitRecord*> cached;  ///< nullptr: analysed fresh
  std::vector<UnitAnalysis> analyses;
  std::vector<UnitRecord> fresh;  ///< fresh sub records, per unit, in sub order

  /// The record of the `sub_i`-th subcomponent of a fresh unit, produced on
  /// first use.
  const UnitSubRecord& fresh_record(const SsamModel& ssam, size_t unit_i, size_t sub_i,
                                    ObjectId sub, const GraphFmeaOptions& options) {
    auto& subs = fresh[unit_i].subs;
    if (sub_i == subs.size()) {
      subs.push_back(produce_sub_record(ssam, units[unit_i], *analyses[unit_i].analysis, sub,
                                        options));
    }
    return subs[sub_i];
  }
};

/// Phases A and B: collect the units, ask the cache which it serves, and
/// analyse the rest. Touches neither the result nor the model.
RunState prepare_run(const SsamModel& ssam, ObjectId component, const GraphFmeaOptions& options,
                     UnitResultCache* cache, GraphFmeaStats* stats) {
  GraphFmeaMetrics& metrics = GraphFmeaMetrics::get();
  metrics.runs.add();
  RunState run;

  const auto collect_start = std::chrono::steady_clock::now();
  {
    obs::Span collect_span("graph_fmea.collect", &metrics.collect_seconds);
    run.units = collect_units(ssam, component);
    run.cached.assign(run.units.size(), nullptr);
    if (cache != nullptr) {
      for (size_t i = 0; i < run.units.size(); ++i) {
        run.cached[i] = cache->lookup(run.units[i].component, run.units[i].path);
      }
    }
  }
  size_t hit_count = 0;
  for (const auto* record : run.cached) hit_count += record != nullptr ? 1 : 0;
  metrics.units.add(run.units.size());
  metrics.cache_hits.add(hit_count);
  metrics.cache_misses.add(run.units.size() - hit_count);
  if (stats != nullptr) {
    stats->units = run.units.size();
    stats->cache_hits = hit_count;
    stats->cache_misses = run.units.size() - hit_count;
    stats->collect_seconds = seconds_since(collect_start);
  }

  // Per-unit single-point analyses (parallel, const model reads) — cache
  // hits skip the phase entirely, which is where the incremental speed-up
  // comes from.
  const auto analyze_start = std::chrono::steady_clock::now();
  {
    obs::Span analyze_span("graph_fmea.analyze", &metrics.analyze_seconds);
    run.analyses = analyze_units(ssam, run.units, options, run.cached);
  }
  if (stats != nullptr) stats->analyze_seconds = seconds_since(analyze_start);
  run.fresh.resize(run.units.size());
  return run;
}

/// Phase C, full walk: replays the recursive walk of Algorithm 1 with an
/// explicit stack, emitting rows/warnings and mutating the model in the exact
/// order the old recursion used — deterministic for any job count and any
/// cache-hit pattern. Records where every sub record landed in `layout`.
size_t emit_walk(SsamModel& ssam, RunState& run, const GraphFmeaOptions& options,
                 FmedaResult& result, EmitLayout* layout) {
  std::map<ObjectId, size_t> unit_index;
  for (size_t i = 0; i < run.units.size(); ++i) unit_index[run.units[i].component] = i;
  if (layout != nullptr) {
    layout->units.clear();
    for (const Unit& unit : run.units) layout->units.push_back(unit.component);
    layout->slots.clear();
  }
  struct Frame {
    size_t unit;
    std::vector<ObjectId> subs;  ///< copied: write-backs create repo objects
    size_t next = 0;
  };
  std::vector<Frame> stack;
  if (!run.units.empty()) {
    stack.push_back({0, ssam.obj(run.units[0].component).refs("subcomponents"), 0});
  }
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next >= frame.subs.size()) {
      stack.pop_back();
      continue;
    }
    const size_t unit_i = frame.unit;
    const size_t sub_i = frame.next;
    const ObjectId sub = frame.subs[frame.next++];
    if (run.cached[unit_i] != nullptr) {
      const UnitRecord& record = *run.cached[unit_i];
      if (sub_i >= record.subs.size() || record.subs[sub_i].sub != sub) {
        throw AnalysisError("stale unit cache record for '" + run.units[unit_i].path +
                            "' — the cache returned a record for a different model state");
      }
      apply_sub_record(ssam, record.subs[sub_i], result);
    } else {
      apply_sub_record(ssam, run.fresh_record(ssam, unit_i, sub_i, sub, options), result);
    }
    if (layout != nullptr) {
      layout->slots.push_back({unit_i, sub, result.rows.size(), result.warnings.size()});
    }

    // Algorithm 1 line 14: repeat for composite subcomponents.
    if (!ssam.obj(sub).refs("subcomponents").empty() &&
        !ssam.obj(sub).refs("ioNodes").empty()) {
      const size_t child = unit_index.at(sub);
      stack.push_back({child, ssam.obj(sub).refs("subcomponents"), 0});
    }
  }
  return result.rows.size();
}

/// Phase C, splice: re-emits only the units the cache declined into the
/// previous result, in walk order. Returns false, before touching anything,
/// when the previous layout does not fit this run (the unit list or a
/// declined unit's subcomponents changed); otherwise the number of rows
/// emitted.
std::optional<size_t> emit_splice(SsamModel& ssam, RunState& run,
                                  const GraphFmeaOptions& options, FmedaResult& result,
                                  EmitLayout& layout) {
  if (run.units.empty() || layout.units.size() != run.units.size()) return std::nullopt;
  for (size_t i = 0; i < run.units.size(); ++i) {
    if (layout.units[i] != run.units[i].component) return std::nullopt;
  }
  // Produce every declined unit's records for its current subcomponents and
  // check them against the slots they must fill.
  for (size_t i = 0; i < run.units.size(); ++i) {
    if (run.cached[i] != nullptr) continue;
    const std::vector<ObjectId>& subs = ssam.obj(run.units[i].component).refs("subcomponents");
    for (size_t sub_i = 0; sub_i < subs.size(); ++sub_i) {
      run.fresh_record(ssam, i, sub_i, subs[sub_i], options);
    }
  }
  std::vector<size_t> cursor(run.units.size(), 0);
  for (const EmitLayout::Slot& slot : layout.slots) {
    if (run.cached[slot.unit] != nullptr) continue;
    const auto& subs = run.fresh[slot.unit].subs;
    size_t& next = cursor[slot.unit];
    if (next >= subs.size() || subs[next].sub != slot.sub) return std::nullopt;
    ++next;
  }
  for (size_t i = 0; i < run.units.size(); ++i) {
    if (run.cached[i] == nullptr && cursor[i] != run.fresh[i].subs.size()) return std::nullopt;
  }

  // The walk's warnings end at the last slot; the closing diagnostic after
  // them is recomputed by the caller.
  result.warnings.resize(layout.slots.back().warnings_end);
  std::fill(cursor.begin(), cursor.end(), 0);
  size_t emitted = 0;
  std::ptrdiff_t row_shift = 0;
  std::ptrdiff_t warning_shift = 0;
  size_t old_rows_begin = 0;
  size_t old_warnings_begin = 0;
  for (EmitLayout::Slot& slot : layout.slots) {
    const size_t old_rows_end = slot.rows_end;
    const size_t old_warnings_end = slot.warnings_end;
    if (run.cached[slot.unit] == nullptr) {
      const UnitSubRecord& record = run.fresh[slot.unit].subs[cursor[slot.unit]++];
      const size_t old_rows = old_rows_end - old_rows_begin;
      const size_t old_warnings = old_warnings_end - old_warnings_begin;
      splice_range(result.rows, old_rows_begin + static_cast<size_t>(row_shift), old_rows,
                   record.rows);
      splice_range(result.warnings, old_warnings_begin + static_cast<size_t>(warning_shift),
                   old_warnings, record.warnings);
      row_shift += static_cast<std::ptrdiff_t>(record.rows.size()) -
                   static_cast<std::ptrdiff_t>(old_rows);
      warning_shift += static_cast<std::ptrdiff_t>(record.warnings.size()) -
                       static_cast<std::ptrdiff_t>(old_warnings);
      write_back(ssam, record);
      emitted += record.rows.size();
    }
    slot.rows_end = old_rows_end + static_cast<size_t>(row_shift);
    slot.warnings_end = old_warnings_end + static_cast<size_t>(warning_shift);
    old_rows_begin = old_rows_end;
    old_warnings_begin = old_warnings_end;
  }
  return emitted;
}

/// Phase C and the epilogue shared by both entry points: emit (splicing into
/// the previous result when `splice`), store the fresh records, and append
/// the closing diagnostic.
void finish_run(SsamModel& ssam, ObjectId component, RunState& run,
                const GraphFmeaOptions& options, UnitResultCache* cache, FmedaResult& result,
                EmitLayout* layout, bool splice, GraphFmeaStats* stats) {
  GraphFmeaMetrics& metrics = GraphFmeaMetrics::get();
  const auto emit_start = std::chrono::steady_clock::now();
  {
    obs::Span emit_span("graph_fmea.emit", &metrics.emit_seconds);
    std::optional<size_t> emitted;
    if (splice) emitted = emit_splice(ssam, run, options, result, *layout);
    if (!emitted.has_value()) {
      FmedaResult walked;
      emitted = emit_walk(ssam, run, options, walked, layout);
      result = std::move(walked);
    }
    metrics.emitted_rows.add(*emitted);
    if (cache != nullptr) {
      for (size_t i = 0; i < run.units.size(); ++i) {
        if (run.cached[i] != nullptr) continue;
        run.fresh[i].component = run.units[i].component;
        run.fresh[i].path = run.units[i].path;
        cache->store(std::move(run.fresh[i]));
      }
    }
  }
  if (stats != nullptr) stats->emit_seconds = seconds_since(emit_start);

  result.system = ssam.obj(component).get_string("name");
  result.warn_if_no_safety_related();
}

}  // namespace

FmedaResult analyze_component(SsamModel& ssam, ObjectId component,
                              const GraphFmeaOptions& options, UnitResultCache* cache,
                              GraphFmeaStats* stats, EmitLayout* layout) {
  RunState run = prepare_run(ssam, component, options, cache, stats);
  FmedaResult result;
  finish_run(ssam, component, run, options, cache, result, layout, false, stats);
  return result;
}

void reanalyze_component(SsamModel& ssam, ObjectId component, const GraphFmeaOptions& options,
                         UnitResultCache& cache, FmedaResult& result, EmitLayout& layout,
                         GraphFmeaStats* stats) {
  RunState run = prepare_run(ssam, component, options, &cache, stats);
  finish_run(ssam, component, run, options, &cache, result, &layout, true, stats);
}

}  // namespace decisive::core
