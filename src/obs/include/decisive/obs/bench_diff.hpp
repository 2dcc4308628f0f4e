// Perf-regression sentinel: diffs a fresh BENCH_*.json snapshot against a
// checked-in baseline with per-metric noise tolerances.
//
// Bench snapshot document (schema_version 1, written by bench/obs_bench.hpp):
//   {"schema_version":1,"kind":"bench-snapshot","bench":"campaign",
//    "metrics":<Registry::to_json object>}
//
// Two comparison modes:
//  - absolute: |fresh - baseline| / max(|baseline|, |fresh|) <= tolerance
//    (symmetric relative delta; 0 when both sides are 0). Meaningful when
//    fresh and baseline ran on comparable hardware.
//  - ratio ("per"): compare fresh.metric/fresh.per against
//    baseline.metric/baseline.per. google-benchmark picks iteration counts
//    adaptively, so raw counters scale with machine speed — but a ratio like
//    fast-path fallbacks per task or solver iterations per solve is
//    iteration-invariant, which is what CI checks across machines.
//
// A mismatched document (wrong kind, schema_version, or bench name between
// fresh and baseline) is a structured error, distinct from a regression.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "decisive/base/json.hpp"

namespace decisive::obs {

struct BenchSnapshot {
  int schema_version = 0;
  std::string bench;
  json::Value metrics;
};

/// Parses a bench snapshot; throws ParseError on malformed input or a
/// document that is not a schema_version-1 bench-snapshot.
[[nodiscard]] BenchSnapshot parse_bench_snapshot(std::string_view text);

/// One configured comparison. `metric` (and `per`, when set) name counters
/// or gauges in the snapshot's metrics object; a missing metric is an
/// AnalysisError — a sentinel that silently skips is no sentinel.
struct BenchCheck {
  std::string metric;
  std::string per;         ///< empty = absolute compare
  double tolerance = -1.0; ///< < 0 = use the default tolerance
};

struct BenchDiffOptions {
  double default_tolerance = 0.25;
  /// Compare p50/p99 of every histogram too (wall-clock; machine-dependent,
  /// so opt-in). Only applies in default mode (no explicit checks).
  bool check_wall = false;
  /// When non-empty, ONLY these checks run; default mode (all common
  /// counters + gauges) is skipped.
  std::vector<BenchCheck> checks;
};

struct BenchDiffRow {
  std::string label;       ///< "metric" or "metric / per"
  double baseline = 0.0;
  double fresh = 0.0;
  double delta = 0.0;      ///< symmetric relative delta
  double tolerance = 0.0;
  bool regression = false; ///< delta exceeded tolerance
};

struct BenchDiffReport {
  std::string bench;
  std::vector<BenchDiffRow> rows;

  [[nodiscard]] bool regression() const;
  /// Human-readable table (what bench_compare prints).
  [[nodiscard]] std::string render() const;
  /// Machine-readable report document (uploaded as a CI artifact).
  [[nodiscard]] std::string to_json() const;
};

/// Diffs fresh against baseline. Throws AnalysisError when the two snapshots
/// name different benches or a configured check references a missing metric.
[[nodiscard]] BenchDiffReport diff_bench_snapshots(const BenchSnapshot& fresh,
                                                   const BenchSnapshot& baseline,
                                                   const BenchDiffOptions& options);

/// Parses a checks file:
///   {"schema_version":1,"kind":"bench-checks","default_tolerance":0.25,
///    "checks":{"campaign":[{"metric":...,"per":...,"tolerance":...}, ...]}}
/// Returns the checks for `bench` (empty when the bench has no entry) and
/// overwrites `default_tolerance` when the file sets one.
[[nodiscard]] std::vector<BenchCheck> parse_bench_checks(std::string_view text,
                                                         std::string_view bench,
                                                         double* default_tolerance);

}  // namespace decisive::obs
