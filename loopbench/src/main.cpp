// loopbench — the closed-loop benchmark program (see loopbench.hpp and README.md).
//
//   loopbench generate --workload W --seed N --dir D [--tiny]
//   loopbench run      --workload W --seed N --dir D --seconds S --trace 0|1
//                      [--trace-out F] [--tiny]
//
// `run` prints a human-readable summary and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0) or the per-layer metrics (--trace 1). It
// exits 1 when any operation failed or differed from its oracle.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "decisive/obs/trace.hpp"
#include "loopbench.hpp"

using namespace loopbench;

namespace {

struct Options {
  std::string mode;
  std::string workload;
  std::uint32_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::filesystem::path dir;
  std::string trace_out;
};

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: loopbench generate|run --workload W ...");
  Options options;
  options.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = static_cast<std::uint32_t>(std::stoull(value));
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--trace") options.trace = value != "0";
    else if (flag == "--dir") options.dir = value;
    else if (flag == "--trace-out") options.trace_out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (options.workload.empty() || options.dir.empty()) {
    throw std::invalid_argument("--workload and --dir are required");
  }
  return options;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linearly interpolated quantile (p in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Operations per repetition: enough that ten samples lie beyond p90.
constexpr size_t kRepetitionOps = 100;

struct LatencyStats {
  size_t repetitions = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double ops_per_s = 0.0;
};

/// Splits the operation times (in run order) into repetitions of at least
/// kRepetitionOps consecutive operations, computes p50, p90 and throughput
/// per repetition, and reports the median of each over the repetitions. On
/// a shared machine, slow spells of a few seconds then move one repetition,
/// not the whole run's tail.
LatencyStats repetition_stats(const std::vector<double>& ms) {
  const size_t repetitions = std::max<size_t>(1, ms.size() / kRepetitionOps);
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> rate;
  auto boundary = [&](size_t r) {
    return ms.begin() + static_cast<std::ptrdiff_t>(r * ms.size() / repetitions);
  };
  for (size_t r = 0; r < repetitions; ++r) {
    const std::vector<double> chunk(boundary(r), boundary(r + 1));
    const double total_ms = std::accumulate(chunk.begin(), chunk.end(), 0.0);
    p50.push_back(quantile(chunk, 0.5));
    p90.push_back(quantile(chunk, 0.9));
    rate.push_back(total_ms > 0.0 ? static_cast<double>(chunk.size()) / (total_ms / 1e3) : 0.0);
  }
  return {repetitions, median(p50), median(p90), median(rate)};
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Per-layer metric catalogue
// ---------------------------------------------------------------------------

enum class Kind {
  Ms,     ///< median per-operation time in ms, plus a ".share" of the operation
  Us,     ///< the same in microseconds
  Ratio,  ///< pooled numerator / denominator over the traced operations
  Count,  ///< mean per operation
};

struct LayerMetric {
  const char* name;
  Kind kind;
};

/// Every per-layer metric, printed by every traced run. A layer a workload
/// does not exercise reads 0 there. A time layer that runs only in set-up
/// (the edit loop's model load and cold reanalyze) reports the median over
/// the set-ups, and its share of an operation reads 0.
constexpr LayerMetric kLayers[] = {
    {"drivers.parse_mdl", Kind::Ms},
    {"drivers.reliability", Kind::Ms},
    {"sim.build_circuit", Kind::Ms},
    {"core.analyze_circuit", Kind::Ms},
    {"core.campaign.baseline", Kind::Ms},
    {"core.campaign.context", Kind::Ms},
    {"core.campaign.task", Kind::Ms},
    {"sim.solves_per_task", Kind::Ratio},
    {"sim.newton_iters_per_solve", Kind::Ratio},
    {"sim.sparse_accept_ratio", Kind::Ratio},
    {"sim.batch_accept_ratio", Kind::Ratio},
    {"sim.dense_fallback_ratio", Kind::Ratio},
    {"sim.sparse_refactors", Kind::Count},
    {"sim.sparse_partial_refactors", Kind::Count},
    {"ssam.edit", Kind::Us},
    {"session.cold_reanalyze", Kind::Ms},
    {"session.reanalyze", Kind::Ms},
    {"session.fingerprint", Kind::Ms},
    {"session.analyze", Kind::Ms},
    {"session.other", Kind::Ms},
    {"session.hit_rate", Kind::Ratio},
    {"session.short_circuit_ratio", Kind::Ratio},
    {"session.dirty_components", Kind::Count},
    {"model.load_xmi", Kind::Ms},
    {"core.analyze_component", Kind::Ms},
    {"core.graph_fmea.collect", Kind::Ms},
    {"core.graph_fmea.analyze", Kind::Ms},
    {"core.graph_fmea.emit", Kind::Ms},
    {"fta.synthesize", Kind::Ms},
    {"fta.quantify", Kind::Ms},
    {"fta.classify_latent", Kind::Ms},
    {"fta.memo_hit_ratio", Kind::Ratio},
    {"fta.zbdd_nodes", Kind::Count},
    {"core.pareto", Kind::Ms},
    {"core.pareto.prune_ratio", Kind::Ratio},
    {"core.pareto.front_size", Kind::Count},
    {"core.render_csv", Kind::Ms},
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One traced operation: its wall time, what its spans covered, its layers.
struct TracedOp {
  double ms;
  double covered_ms;
  LayerSample layers;
};

std::vector<Metric> layer_metrics(const std::vector<TracedOp>& ops,
                                  const std::vector<std::map<std::string, double>>& setups,
                                  const std::vector<double>& untraced_ms,
                                  const std::vector<double>& traced_ms, size_t attempted,
                                  size_t failed) {
  std::vector<Metric> out;
  for (const LayerMetric& layer : kLayers) {
    const std::string name = layer.name;
    switch (layer.kind) {
      case Kind::Ms:
      case Kind::Us: {
        std::vector<double> ms;
        std::vector<double> share;
        bool in_ops = false;
        for (const TracedOp& op : ops) {
          const auto it = op.layers.ms.find(name);
          const double value = it == op.layers.ms.end() ? 0.0 : it->second;
          in_ops = in_ops || it != op.layers.ms.end();
          ms.push_back(value);
          share.push_back(op.ms > 0.0 ? value / op.ms : 0.0);
        }
        if (!in_ops) {
          ms.clear();
          for (const auto& setup : setups) {
            if (const auto it = setup.find(name); it != setup.end()) ms.push_back(it->second);
          }
        }
        if (layer.kind == Kind::Ms) {
          out.push_back({name + "_ms", median(ms), "ms"});
        } else {
          out.push_back({name + "_us", median(ms) * 1e3, "us"});
        }
        out.push_back({name + ".share", median(share), "ratio"});
        break;
      }
      case Kind::Ratio: {
        double numerator = 0.0;
        double denominator = 0.0;
        for (const TracedOp& op : ops) {
          const auto it = op.layers.ratios.find(name);
          if (it == op.layers.ratios.end()) continue;
          numerator += it->second.first;
          denominator += it->second.second;
        }
        out.push_back({name, denominator > 0.0 ? numerator / denominator : 0.0, "ratio"});
        break;
      }
      case Kind::Count: {
        double total = 0.0;
        for (const TracedOp& op : ops) {
          const auto it = op.layers.counts.find(name);
          if (it != op.layers.counts.end()) total += it->second;
        }
        out.push_back({name, ops.empty() ? 0.0 : total / static_cast<double>(ops.size()),
                       "count"});
        break;
      }
    }
  }
  std::vector<double> coverage;
  for (const TracedOp& op : ops) coverage.push_back(op.ms > 0.0 ? op.covered_ms / op.ms : 0.0);
  out.push_back({"coverage_ratio", median(coverage), "ratio"});
  const double untraced = median(untraced_ms);
  out.push_back({"trace_overhead_ratio", untraced > 0.0 ? median(traced_ms) / untraced - 1.0 : 0.0,
                 "ratio"});
  out.push_back({"fail_ratio",
                 attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
                 "ratio"});
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const Options& options, const Sizes& sizes) {
  if (options.workload == "campaign_rail") return make_campaign_rail(options.dir);
  if (options.workload == "edit_loop") return make_edit_loop(options.dir, options.seed, sizes);
  if (options.workload == "design_pass") return make_design_pass(options.dir);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

int run(const Options& options) {
  const Sizes sizes = options.tiny ? Sizes::tiny() : Sizes::full();
  auto workload = make_workload(options, sizes);
  // At least one full repetition of untraced operations.
  const size_t min_ops = options.tiny ? 10 : kRepetitionOps + 10;
  // Set-up: the program's own work before the first timed operation. It is
  // repeated three times up front and then once every setup_spacing of the
  // run, so its median sees the same machine as the operations do rather
  // than the first fraction of a second; setup_s is the median.
  constexpr size_t kInitialSetups = 3;
  const auto setup_spacing = std::chrono::duration<double>(options.tiny ? 0.25 : 3.0);
  std::vector<double> setup_s;
  std::vector<std::map<std::string, double>> setup_layers;
  auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    workload->set_up();
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    setup_layers.push_back(workload->setup_layers());
  };
  for (size_t i = 0; i < kInitialSetups; ++i) set_up();
  workload->prepare_oracle();

  Tracer tracer;
  std::vector<TracedOp> traced_ops;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  size_t attempted = 0;
  size_t failed = 0;
  std::string first_failure;
  auto fail = [&](const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  };

  double peak_rss = 0.0;
  const Clock::time_point start = Clock::now();
  const auto budget = std::chrono::duration<double>(options.seconds);
  // Hard stop, so that one run of a much slower program still ends within
  // three minutes (with the minimum operation count unmet).
  const auto cap = std::chrono::duration<double>(std::max(100.0, options.seconds));
  auto next_set_up = setup_spacing;
  for (size_t index = 0;; ++index) {
    const auto elapsed = Clock::now() - start;
    if ((elapsed >= budget && attempted >= min_ops) || elapsed >= cap) break;
    if (elapsed >= next_set_up) {
      set_up();
      next_set_up += setup_spacing;
    }
    if (const auto replay_set_up = workload->before_op(index)) {
      setup_s.push_back(*replay_set_up);
      setup_layers.push_back(workload->setup_layers());
    }

    // Traced runs alternate untraced and traced operations, so the tracing
    // overhead is measured under the same conditions.
    const bool traced = options.trace && index % 2 == 1;
    RegistrySnapshot before;
    if (traced) {
      before = RegistrySnapshot::take();
      enable_program_trace();
    }
    ++attempted;
    std::string failure;
    const Clock::time_point t0 = Clock::now();
    if (traced) tracer.begin_op(index, t0);
    try {
      workload->run_op(index, traced ? &tracer : nullptr);
    } catch (const std::exception& error) {
      failure = std::string("operation threw: ") + error.what();
    }
    const Clock::time_point t1 = Clock::now();
    TracedOp op{ms_between(t0, t1), 0.0, {}};
    if (traced) {
      tracer.end_op(t1);
      decisive::obs::TraceCollector::global().disable();
      const RegistrySnapshot after = RegistrySnapshot::take();
      if (failure.empty()) workload->layers(tracer, before, after, op.layers);
    }
    if (failure.empty()) {
      try {
        failure = workload->check_op(index);
      } catch (const std::exception& error) {
        failure = std::string("oracle threw: ") + error.what();
      }
    }
    // Peak memory over set-up and a fixed amount of work, so a faster
    // program that fits more operations (and edit-script replays) into the
    // run is not charged for them.
    if (attempted == kRepetitionOps) peak_rss = peak_rss_mib();
    if (!failure.empty()) {
      fail("operation " + std::to_string(index) + ": " + failure);
      continue;
    }
    if (!traced) {
      untraced_ms.push_back(op.ms);
      continue;
    }
    traced_ms.push_back(op.ms);
    for (const auto& [name, ms] : tracer.inclusive_ms()) {
      if (name != "op") op.layers.ms.try_emplace(name, ms);
    }
    op.covered_ms = op.ms - tracer.self_ms()["op"];
    traced_ops.push_back(std::move(op));
  }
  try {
    if (const std::string failure = workload->check_final(); !failure.empty()) {
      fail("final state: " + failure);
    }
  } catch (const std::exception& error) {
    fail(std::string("final oracle threw: ") + error.what());
  }

  bool trace_valid = true;
  if (options.trace && !options.trace_out.empty()) {
    const std::string document = tracer.to_chrome_json();
    std::ofstream(options.trace_out, std::ios::binary) << document;
    std::ifstream written(options.trace_out, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(written)),
                           std::istreambuf_iterator<char>());
    if (const std::string problem = decisive::obs::validate_chrome_trace(text);
        !problem.empty()) {
      trace_valid = false;
      std::printf("# trace %s is invalid: %s\n", options.trace_out.c_str(), problem.c_str());
    } else {
      std::printf("# trace: %s (%zu traced operations)\n", options.trace_out.c_str(),
                  traced_ops.size());
    }
  }

  std::vector<Metric> metrics;
  const LatencyStats latency = repetition_stats(untraced_ms);
  if (options.trace) {
    metrics = layer_metrics(traced_ops, setup_layers, untraced_ms, traced_ms, attempted, failed);
  } else {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"op_p50_ms", latency.p50_ms, "ms"},
        {"op_p90_ms", latency.p90_ms, "ms"},
        {"ops_per_s", latency.ops_per_s, "1/s"},
        {"peak_rss_mib", peak_rss > 0.0 ? peak_rss : peak_rss_mib(), "MiB"},
    };
  }

  std::printf("# workload %s seed %u%s: %zu operations attempted, %zu failed "
              "(fail_ratio %s), %zu untraced + %zu traced timed samples, %zu set-ups, "
              "%zu repetitions\n",
              options.workload.c_str(), options.seed, options.tiny ? " (tiny)" : "", attempted,
              failed, number(attempted == 0 ? 0.0 : static_cast<double>(failed) /
                                                       static_cast<double>(attempted))
                          .c_str(),
              untraced_ms.size(), traced_ms.size(), setup_s.size(), latency.repetitions);
  if (!first_failure.empty()) std::printf("# first failure: %s\n", first_failure.c_str());
  for (const Metric& metric : metrics) {
    std::printf("# %-36s %14.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }

  const bool correct = failed == 0 && trace_valid && attempted > 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
         << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_options(argc, argv);
    if (options.mode == "generate") {
      generate_inputs(options.workload, options.seed,
                      options.tiny ? Sizes::tiny() : Sizes::full(), options.dir);
      return 0;
    }
    if (options.mode == "run") return run(options);
    throw std::invalid_argument("unknown mode '" + options.mode + "'");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "loopbench: %s\n", error.what());
    return 2;
  }
}
