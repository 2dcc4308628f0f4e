// Closed-loop benchmark of the DECISIVE edit → analyse loop.
//
// One process, one client, `jobs = 1` in every engine: the benchmark runs one
// operation, checks its output against an oracle outside the timed region,
// and only then starts the next one. Three workloads drive the libraries
// through the same public entry points the `same` CLI uses:
//
//   campaign_rail  MDL + reliability workbook -> fault-injection FMEDA CSV
//   edit_loop      one resident-session turn: edit -> reanalyze -> CSV
//   design_pass    XMI -> graph-FMEA -> ZBDD FTA -> Pareto SM search -> CSVs
//
// The per-layer split comes from the benchmark's own spans around the calls
// into each module (Tracer) plus deltas of the obs::Registry counters the
// program already keeps (RegistrySnapshot).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace loopbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One recorded interval. Span 0 of every operation is the operation itself.
struct SpanRecord {
  const char* name;  ///< string literal
  Clock::time_point start;
  Clock::time_point end;
  int parent;  ///< index into the tracer's span list, -1 for an operation root
  size_t op;   ///< operation id
};

/// In-memory span recorder of the traced operations; written out once at
/// exit as a Chrome trace-event document.
class Tracer {
 public:
  void begin_op(size_t op, Clock::time_point start);
  void end_op(Clock::time_point end);

  /// Opens a span nested in the innermost open one; returns its index.
  int open(const char* name);
  void close(int index);
  /// Adds an already finished span as a child of `parent` (clamped into it).
  void add_closed(const char* name, Clock::time_point start, Clock::time_point end,
                  int parent);

  /// Index of the most recently opened span that is still open.
  [[nodiscard]] int innermost() const { return stack_.empty() ? -1 : stack_.back(); }

  /// Inclusive and self milliseconds per span name over the spans of the
  /// operation that end_op() closed last. The root's self time is stored
  /// under "op".
  [[nodiscard]] std::map<std::string, double> inclusive_ms() const;
  [[nodiscard]] std::map<std::string, double> self_ms() const;

  /// Chrome trace-event JSON of every recorded span ('B'/'E' pairs on one
  /// lane; args carry the operation id, the span id and the parent id).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  size_t op_first_ = 0;  ///< first span of the current/last operation
};

/// RAII span; a null tracer makes it free (untraced operations).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer == nullptr ? -1 : tracer->open(name)) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Starts (or restarts) the program's own trace collector and remembers
/// when, so its timestamps can be mapped onto the benchmark's clock.
void enable_program_trace();
[[nodiscard]] Clock::time_point program_trace_origin();

// ---------------------------------------------------------------------------
// Registry counters
// ---------------------------------------------------------------------------

/// Values of the obs::Registry counters, histogram sums (seconds) and gauges
/// the per-layer table reads. A metric the program never registered reads 0.
struct RegistrySnapshot {
  std::map<std::string, double> values;

  static RegistrySnapshot take();
  [[nodiscard]] double at(const std::string& name) const;
  [[nodiscard]] double since(const RegistrySnapshot& before, const std::string& name) const {
    return at(name) - before.at(name);
  }
};

// ---------------------------------------------------------------------------
// Per-layer samples
// ---------------------------------------------------------------------------

/// What one traced operation contributes to the per-layer metrics.
struct LayerSample {
  std::map<std::string, double> ms;  ///< layer -> inclusive milliseconds
  std::map<std::string, std::pair<double, double>> ratios;  ///< numerator, denominator
  std::map<std::string, double> counts;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// One repetition of the program's own work before the first timed
  /// operation; timed into setup_s.
  virtual void set_up() = 0;
  /// Builds the oracle reference. Untimed, outside setup_s.
  virtual void prepare_oracle() = 0;
  /// Untimed work before operation `index`. Returns the seconds of a set-up
  /// repetition it performed (an extra setup_s sample), if any.
  virtual std::optional<double> before_op(size_t /*index*/) { return std::nullopt; }
  /// The timed operation. `tracer` is null on untraced operations.
  virtual void run_op(size_t index, Tracer* tracer) = 0;
  /// Compares the outputs of the operation just run with the oracle;
  /// returns "" on a match, else a description of the mismatch. Untimed.
  virtual std::string check_op(size_t index) = 0;
  /// Oracle check after the last operation of the run; "" on a match.
  virtual std::string check_final() { return ""; }
  /// Per-layer values of the traced operation just run. May fold further
  /// spans into `tracer` (under the operation just closed).
  virtual void layers(Tracer& tracer, const RegistrySnapshot& before,
                      const RegistrySnapshot& after, LayerSample& out) = 0;
  /// Layer milliseconds of the last set-up repetition (for layers that only
  /// run in set-up, such as the edit loop's model load).
  [[nodiscard]] virtual std::map<std::string, double> setup_layers() const { return {}; }
};

/// Input sizes: `tiny` is the self-test subject, otherwise the stated one.
struct Sizes {
  int rail_stages;
  size_t edit_composites, edit_leaves, edit_script_turns;
  size_t design_composites, design_leaves, design_width;
  static Sizes full() { return {128, 40, 96, 128, 16, 2, 6}; }
  static Sizes tiny() { return {12, 4, 6, 16, 3, 2, 2}; }
};

/// Writes the workload's seeded input files into `dir`.
void generate_inputs(const std::string& workload, std::uint32_t seed, const Sizes& sizes,
                     const std::filesystem::path& dir);

std::unique_ptr<Workload> make_campaign_rail(const std::filesystem::path& dir);
std::unique_ptr<Workload> make_edit_loop(const std::filesystem::path& dir, std::uint32_t seed,
                                         const Sizes& sizes);
std::unique_ptr<Workload> make_design_pass(const std::filesystem::path& dir);

}  // namespace loopbench
