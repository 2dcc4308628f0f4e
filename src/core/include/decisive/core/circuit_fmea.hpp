// Automated FMEA on circuit (Simulink-substitute) models by fault injection
// (paper Section IV-D1):
//
//   1. Initialise — record the baseline operating point.
//   2. For each component, for each failure mode found in the reliability
//      model: inject the fault, re-run simulate(), compare every observable
//      reading against the baseline. A deviation beyond the threshold marks
//      the failure mode safety-related.
//   3. Output — the FmedaResult (Component Safety Analysis Model + table).
//
// When a SafetyMechanismModel is supplied (DECISIVE Step 4b), the
// highest-coverage applicable mechanism is deployed on every safety-related
// failure mode, turning the FMEA into an FMEDA.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "decisive/core/fmeda.hpp"
#include "decisive/core/reliability.hpp"
#include "decisive/core/safety_mechanism.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/sim/solver.hpp"

namespace decisive::core {

/// Resilient-execution controls of a campaign run: crash-safe journaling,
/// deterministic sharding and failure containment (see campaign.hpp and
/// campaign_journal.hpp). All defaults preserve the classic one-shot,
/// single-shard behaviour.
struct CampaignExecution {
  /// Append-only checkpoint journal ("" = no journal). When the file already
  /// holds a compatible journal of the same campaign, completed tasks are
  /// replayed from it and only the remainder is executed; the final FMEDA is
  /// byte-identical to an uninterrupted run.
  std::string journal_path;
  /// Deterministic shard partition: this runner executes the tasks whose
  /// global index i satisfies i % shard_count == shard_index. The per-shard
  /// results merge (merge_journals) into the identical unsharded FMEDA.
  int shard_index = 0;
  int shard_count = 1;
  /// Bounded containment retries for tasks that crash or exhaust their solve
  /// budget: each retry re-runs the task from scratch (restarting the
  /// recovery ladder) under a budget scaled by retry_budget_scale, so a hung
  /// solve cannot hang twice as long on retry. 0 disables retries.
  int max_retries = 1;
  double retry_budget_scale = 0.5;
  /// When true, a baseline that does not solve yields a degraded result with
  /// every row NotApplicable instead of a SimulationError.
  bool best_effort = false;
  /// Flight-recorder heartbeat JSON (obs/progress.hpp), atomically replaced
  /// as tasks complete so `same status` can watch the run live. "" derives
  /// the path from the journal — "<journal_path>.heartbeat.json" — when a
  /// journal is configured, and disables the heartbeat otherwise.
  std::string heartbeat_path;
  /// Minimum seconds between heartbeat writes (0 = publish on every task).
  double heartbeat_interval_seconds = 1.0;
};

struct CircuitFmeaOptions {
  /// Relative deviation of an observable that marks a fault safety-related.
  double relative_threshold = 0.20;
  /// Readings below this magnitude are treated as zero for the relative
  /// comparison (avoids 0-vs-1e-12 blow-ups).
  double absolute_floor = 1e-6;
  /// Observables that embody the safety goal (e.g. the current sensor of the
  /// monitored supply). Deviation on one of these classifies the failure as
  /// DVF; deviation only elsewhere as IVF. Empty = every observable is a
  /// safety-goal observable.
  std::vector<std::string> safety_goal_observables;
  /// Solver configuration used for every simulate() call.
  sim::SolveOptions solver;
  /// Campaign worker threads: 1 = serial, 0 = hardware concurrency. The
  /// FMEDA output is byte-identical for any value.
  int jobs = 1;
  /// Unread. It switched the batched low-rank campaign tier, which is gone:
  /// the campaign has one fast path (`sparse` below). The field stays
  /// declared only because the loopbench harness still assigns it; it goes
  /// when that harness is next revised.
  bool batch = true;
  /// The campaign's factor-once fast path (campaign_solver.hpp): one nominal
  /// stamp plan and symbolic analysis, shared read-only by every worker.
  /// Faults that keep the nominal stamp stream refactor numerics only, and
  /// structural Open/Short faults reuse the symbolic prefix. Rows are
  /// accepted only behind correctness gates — the naive fallback always
  /// runs the dense kernel — so output is byte-identical either way and,
  /// like `jobs` and the shard spec, the flag is excluded from the campaign
  /// fingerprint, so journals interchange freely. `false` is the
  /// `--no-sparse` escape hatch.
  bool sparse = true;
  /// Journal / shard / containment controls of the campaign run.
  CampaignExecution execution;

  /// True when `name` counts toward the safety goal.
  [[nodiscard]] bool is_goal_observable(const std::string& name) const;
};

/// Runs the automated FME(D)A via the campaign engine (see campaign.hpp).
/// `sm_model` may be nullptr for plain FMEA. Components whose type has no
/// reliability entry are skipped with a warning (the paper's "assume DC1 is
/// stable" corresponds to the source having no reliability row). Throws
/// SimulationError if the *baseline* does not solve even via the solver
/// recovery ladder; per-fault solver failure is a classified FaultOutcome on
/// the row (conservatively marked safety-related), never an exception.
FmedaResult analyze_circuit(const sim::BuiltCircuit& built, const ReliabilityModel& reliability,
                            const SafetyMechanismModel* sm_model = nullptr,
                            const CircuitFmeaOptions& options = {});

/// Measures the deviation of `after` vs `before` for one observable:
/// |after-before| / max(|before|, floor). Exposed for tests.
double observable_deviation(double before, double after, double absolute_floor);

}  // namespace decisive::core
