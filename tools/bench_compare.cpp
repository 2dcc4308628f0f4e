// bench_compare — the perf-regression sentinel.
//
// Diffs a fresh BENCH_<name>.json snapshot against a checked-in baseline
// (bench/baselines/) with per-metric noise tolerances, and exits nonzero on
// a regression — CI runs it after every bench so the bench trajectory
// actually gates merges instead of rotting as unread artefacts.
//
//   bench_compare <fresh.json> <baseline.json>
//                 [--checks <checks.json>] [--tolerance T]
//                 [--check-wall] [--report <out.json>]
//
// With --checks, only the configured checks for the snapshot's bench run —
// typically iteration-invariant ratios ("metric per divisor"), which stay
// comparable across machines even though google-benchmark picks iteration
// counts adaptively. Without it, every counter and gauge common to both
// snapshots is compared with the default tolerance (meaningful when fresh
// and baseline ran on comparable hardware); --check-wall adds histogram
// p50/p99 (wall clock, machine-dependent, so opt-in).
//
// Exit codes: 0 = within tolerance, 1 = regression, 2 = structural error
// (unreadable file, schema/kind/bench mismatch, missing metric) or usage.
#include <cstdio>
#include <string>
#include <vector>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/obs/bench_diff.hpp"

using namespace decisive;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_compare <fresh.json> <baseline.json>\n"
               "                     [--checks <checks.json>] [--tolerance T]\n"
               "                     [--check-wall] [--report <out.json>]\n"
               "exit: 0 ok, 1 regression, 2 structural error\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string checks_path;
  std::string report_path;
  obs::BenchDiffOptions options;
  bool tolerance_from_cli = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--checks" && i + 1 < argc) {
      checks_path = argv[++i];
    } else if (arg == "--tolerance" && i + 1 < argc) {
      options.default_tolerance = parse_double(argv[++i]);
      tolerance_from_cli = true;
    } else if (arg == "--check-wall") {
      options.check_wall = true;
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (starts_with(arg, "--")) {
      std::fprintf(stderr, "bench_compare: unknown option '%s'\n", arg.c_str());
      return usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return usage();

  try {
    const obs::BenchSnapshot fresh =
        obs::parse_bench_snapshot(read_whole_file(positional[0], "fresh snapshot"));
    const obs::BenchSnapshot baseline =
        obs::parse_bench_snapshot(read_whole_file(positional[1], "baseline snapshot"));

    if (!checks_path.empty()) {
      // The checks file's default_tolerance yields to an explicit --tolerance.
      double file_tolerance = options.default_tolerance;
      options.checks = obs::parse_bench_checks(read_whole_file(checks_path, "checks file"),
                                               fresh.bench, &file_tolerance);
      if (!tolerance_from_cli) options.default_tolerance = file_tolerance;
      if (options.checks.empty()) {
        std::fprintf(stderr, "bench_compare: no checks configured for bench '%s' in %s\n",
                     fresh.bench.c_str(), checks_path.c_str());
        return 2;
      }
    }

    const obs::BenchDiffReport report = obs::diff_bench_snapshots(fresh, baseline, options);
    std::printf("%s", report.render().c_str());
    if (!report_path.empty()) {
      write_whole_file(report_path, report.to_json(), "report");
      std::fprintf(stderr, "report written to %s\n", report_path.c_str());
    }
    return report.regression() ? 1 : 0;
  } catch (const Error& error) {
    std::fprintf(stderr, "bench_compare: %s\n", error.what());
    return 2;
  }
}
