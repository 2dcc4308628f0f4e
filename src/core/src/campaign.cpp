#include "decisive/core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/obs/log.hpp"
#include "decisive/obs/progress.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/shard.hpp"
#include "decisive/obs/span.hpp"
#include "decisive/sim/fault.hpp"
#include "decisive/sim/solver.hpp"

namespace decisive::core {

namespace {

/// Campaign-level instrumentation, cached once per process.
struct CampaignMetrics {
  obs::Counter& runs;
  obs::Counter& tasks;
  obs::Counter& outcome_converged;
  obs::Counter& outcome_recovered;
  obs::Counter& outcome_budget_exhausted;
  obs::Counter& outcome_singular;
  obs::Counter& outcome_not_applicable;
  obs::Counter& outcome_crashed;
  obs::Counter& sparse_rows;
  obs::Counter& sparse_fallbacks;
  obs::Counter& near_threshold;
  obs::Counter& retries;
  obs::Counter& checkpoint_replays;
  obs::Counter& journal_appends;
  obs::Counter& journal_trims;
  obs::Counter& breaker_trips;
  obs::Gauge& jobs;
  obs::Gauge& shards;
  obs::Histogram& task_seconds;
  obs::Histogram& run_seconds;

  static CampaignMetrics& get() {
    auto& registry = obs::Registry::global();
    static CampaignMetrics metrics{
        registry.counter("decisive_campaign_runs_total"),
        registry.counter("decisive_campaign_tasks_total"),
        registry.counter("decisive_campaign_outcome_converged_total"),
        registry.counter("decisive_campaign_outcome_recovered_total"),
        registry.counter("decisive_campaign_outcome_budget_exhausted_total"),
        registry.counter("decisive_campaign_outcome_singular_total"),
        registry.counter("decisive_campaign_outcome_not_applicable_total"),
        registry.counter("decisive_campaign_outcome_crashed_total"),
        registry.counter("decisive_campaign_sparse_rows_total"),
        registry.counter("decisive_campaign_sparse_fallback_total"),
        registry.counter("decisive_campaign_near_threshold_total"),
        registry.counter("decisive_campaign_retries_total"),
        registry.counter("decisive_campaign_checkpoint_replays_total"),
        registry.counter("decisive_campaign_journal_appends_total"),
        registry.counter("decisive_campaign_journal_trims_total"),
        registry.counter("decisive_campaign_breaker_trips_total"),
        registry.gauge("decisive_campaign_jobs"),
        registry.gauge("decisive_campaign_shards"),
        registry.histogram("decisive_campaign_task_seconds"),
        registry.histogram("decisive_campaign_run_seconds")};
    return metrics;
  }
};

void count_outcome(const FmedaRow& row) {
  CampaignMetrics& metrics = CampaignMetrics::get();
  switch (row.outcome) {
    case FaultOutcome::Converged: metrics.outcome_converged.add(); break;
    case FaultOutcome::RecoveredViaLadder: metrics.outcome_recovered.add(); break;
    case FaultOutcome::BudgetExhausted: metrics.outcome_budget_exhausted.add(); break;
    case FaultOutcome::Singular: metrics.outcome_singular.add(); break;
    case FaultOutcome::NotApplicable: metrics.outcome_not_applicable.add(); break;
    case FaultOutcome::Crashed: metrics.outcome_crashed.add(); break;
  }
}

/// Classifies one injected fault by comparing operating points. When
/// `margin_out` is non-null it receives the smallest distance of any
/// observable's deviation from the classification threshold — the fast
/// path falls back to the naive solve when a reading sits on that knife
/// edge, so ulp-level solver differences can never flip an effect class.
EffectClass classify(const CircuitFmeaOptions& options, const sim::OperatingPoint& baseline,
                     const sim::OperatingPoint& faulted, double* margin_out = nullptr) {
  bool goal_deviated = false;
  bool other_deviated = false;
  double margin = std::numeric_limits<double>::infinity();
  for (const auto& [name, before] : baseline.readings) {
    const auto it = faulted.readings.find(name);
    if (it == faulted.readings.end()) continue;
    const double deviation = observable_deviation(before, it->second, options.absolute_floor);
    margin = std::min(margin, std::abs(deviation - options.relative_threshold));
    if (deviation > options.relative_threshold) {
      if (options.is_goal_observable(name)) goal_deviated = true;
      else other_deviated = true;
    }
  }
  if (margin_out != nullptr) *margin_out = margin;
  if (goal_deviated) return EffectClass::DVF;
  if (other_deviated) return EffectClass::IVF;
  return EffectClass::None;
}

/// Classification knife-edge band for the fast path: deviations this close
/// to relative_threshold are re-decided by the naive solve.
constexpr double kClassifyGuard = 1e-6;

/// Campaign fault-injection hooks (for the containment tests: the campaign
/// engine eats its own dog food and is itself tested by fault injection).
/// Read fresh per run so tests can flip them between campaigns in-process.
///
///  - DECISIVE_CAMPAIGN_TASK_THROW="<component-path>/<mode-name>[@k]": the
///    matching task throws std::runtime_error from inside run_task_once —
///    must surface as a structured Crashed outcome, never an exception. With
///    "@k", only the first k attempts throw (retry k succeeds), the
///    deterministic "transient crash" specimen of the retry tests.
///  - DECISIVE_CAMPAIGN_WORKER_DIE=<global-task-index>: the worker thread
///    that picks up that task dies *outside* task containment — must trip
///    the circuit breaker and finish the campaign serially.
struct CrashHooks {
  std::string task_throw;
  long worker_die = -1;

  static CrashHooks from_env() {
    CrashHooks hooks;
    if (const char* spec = std::getenv("DECISIVE_CAMPAIGN_TASK_THROW")) {
      hooks.task_throw = spec;
    }
    if (const char* index = std::getenv("DECISIVE_CAMPAIGN_WORKER_DIE")) {
      hooks.worker_die = std::strtol(index, nullptr, 10);
    }
    return hooks;
  }
};

}  // namespace

std::string outcome_warning(const FmedaRow& row) {
  std::string warning;
  switch (row.outcome) {
    case FaultOutcome::Converged:
      break;
    case FaultOutcome::RecoveredViaLadder:
      warning = "fault '" + row.failure_mode + "' on '" + row.component +
                "' needed the solver recovery ladder (" + row.outcome_detail + ")";
      break;
    case FaultOutcome::BudgetExhausted:
      warning = "fault '" + row.failure_mode + "' on '" + row.component +
                "' exhausted the solve budget (" + row.outcome_detail +
                "); conservatively marked safety-related";
      break;
    case FaultOutcome::Singular:
      warning = "fault '" + row.failure_mode + "' on '" + row.component +
                "' produced a singular system (" + row.outcome_detail +
                "); conservatively marked safety-related";
      break;
    case FaultOutcome::NotApplicable:
      warning = "failure mode '" + row.failure_mode + "' of '" + row.component +
                "': " + row.outcome_detail;
      break;
    case FaultOutcome::Crashed:
      warning = "fault '" + row.failure_mode + "' on '" + row.component +
                "' crashed its campaign worker (" + row.outcome_detail +
                "); conservatively marked safety-related";
      break;
  }
  if (row.retries > 0) {
    const std::string note = "took " + std::to_string(row.retries) + " containment " +
                             (row.retries == 1 ? "retry" : "retries");
    if (warning.empty()) {
      warning = "fault '" + row.failure_mode + "' on '" + row.component + "' " + note;
    } else {
      warning += "; " + note;
    }
  }
  return warning;
}

CampaignRunner::CampaignRunner(const sim::BuiltCircuit& built,
                               const ReliabilityModel& reliability,
                               const SafetyMechanismModel* sm_model,
                               CircuitFmeaOptions options)
    : built_(built), sm_model_(sm_model), options_(std::move(options)) {
  for (const auto& component : built_.components) {
    const ComponentReliability* entry = reliability.find(component.block_type);
    if (entry == nullptr) {
      skip_warnings_.push_back("component '" + component.path + "' of type '" +
                               component.block_type +
                               "' has no reliability data; skipped");
      continue;
    }
    for (const auto& mode : entry->modes) {
      tasks_.push_back(Task{&component, entry, &mode});
    }
  }
}

std::uint64_t CampaignRunner::fingerprint() const {
  // Everything that can change a row's bytes goes in; jobs / shard spec /
  // journal path stay out (they must not change results, so a journal written
  // at --jobs 8 resumes under --jobs 1 and vice versa).
  std::ostringstream ident;
  ident << "campaign-v1";
  for (const auto& element : built_.circuit.elements()) {
    ident << "|e " << static_cast<int>(element.kind) << ' ' << element.name << ' '
          << element.a << ' ' << element.b << ' ' << double_to_token(element.value) << ' '
          << element.closed << ' ' << element.ram_ok << ' '
          << double_to_token(element.min_supply);
  }
  for (const auto& name : built_.observables) ident << "|o " << name;
  for (const auto& task : tasks_) {
    ident << "|t " << task.component->path << ' ' << task.component->block_type << ' '
          << task.component->element << ' ' << task.reliability->component_type << ' '
          << double_to_token(task.reliability->fit) << ' ' << task.mode->name << ' '
          << double_to_token(task.mode->distribution);
    // The SM decoration run_task writes into safety-related rows. Only folded
    // in when an SM model is given, so SM-less fingerprints stay unchanged.
    if (sm_model_ != nullptr) {
      ident << "|m ";
      if (const SafetyMechanismSpec* sm =
              sm_model_->best(task.component->block_type, task.mode->name)) {
        ident << sm->name << ' ' << double_to_token(sm->coverage) << ' '
              << double_to_token(sm->cost_hours);
      } else {
        ident << '-';
      }
    }
  }
  ident << "|c " << double_to_token(options_.relative_threshold) << ' '
        << double_to_token(options_.absolute_floor);
  for (const auto& goal : options_.safety_goal_observables) ident << "|g " << goal;
  const sim::SolveOptions& solver = options_.solver;
  ident << "|s " << solver.max_newton_iterations << ' '
        << double_to_token(solver.newton_tolerance) << ' ' << double_to_token(solver.gmin)
        << ' ' << double_to_token(solver.diode_is) << ' ' << double_to_token(solver.diode_vt)
        << ' ' << double_to_token(solver.open_resistance) << ' '
        << double_to_token(solver.closed_resistance) << ' '
        << double_to_token(solver.max_wall_clock_seconds) << ' ' << solver.recovery_ladder
        << ' ' << solver.gmin_ladder_steps << ' ' << solver.source_ladder_steps;
  ident << "|r " << options_.execution.max_retries << ' '
        << double_to_token(options_.execution.retry_budget_scale);
  return fnv1a64(ident.str());
}

CampaignJournalHeader CampaignRunner::journal_header() const {
  CampaignJournalHeader header;
  header.fingerprint = fingerprint();
  header.task_count = tasks_.size();
  header.shard_index = options_.execution.shard_index;
  header.shard_count = options_.execution.shard_count;
  return header;
}

std::vector<size_t> CampaignRunner::shard_task_indices() const {
  const auto& execution = options_.execution;
  std::vector<size_t> indices;
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (static_cast<int>(i % static_cast<size_t>(execution.shard_count)) ==
        execution.shard_index) {
      indices.push_back(i);
    }
  }
  return indices;
}

FmedaRow CampaignRunner::run_task_once(const Task& task,
                                       const sim::OperatingPoint& baseline,
                                       const sim::SolveOptions& solver, int attempt,
                                       const sim::CampaignSparseContext* context,
                                       sim::CampaignSparseContext::Workspace* ws) const {
  FmedaRow row;
  row.component = task.component->path;
  row.component_type = task.reliability->component_type;
  row.fit = task.reliability->fit;
  row.failure_mode = task.mode->name;
  row.distribution = task.mode->distribution;

  sim::Fault fault;
  fault.element = task.component->element;
  try {
    if (const char* throw_env = std::getenv("DECISIVE_CAMPAIGN_TASK_THROW")) {
      std::string spec = throw_env;
      long throw_below = std::numeric_limits<long>::max();
      if (const auto at = spec.rfind('@'); at != std::string::npos) {
        throw_below = std::strtol(spec.c_str() + at + 1, nullptr, 10);
        spec.resize(at);
      }
      if (attempt < throw_below && task.component->path + "/" + task.mode->name == spec) {
        throw std::runtime_error("injected task crash (DECISIVE_CAMPAIGN_TASK_THROW)");
      }
    }
    fault.kind = sim::fault_kind_from_name(task.mode->name);
    const sim::Circuit faulted = sim::inject_fault(
        built_.circuit, fault, solver.open_resistance, solver.closed_resistance);

    // Fast path: refill and refactor the fault's numbers through the
    // campaign's shared stamp plan and symbolic analysis (or the fault's own
    // plan, for the few faults that change the stamp stream). Any fallback
    // reason — conditioning, slow convergence, classification knife edge —
    // re-runs the fault through the naive path below, so the row bytes
    // cannot diverge.
    if (context != nullptr && ws != nullptr) {
      CampaignMetrics& metrics = CampaignMetrics::get();
      sim::SolveDiagnostics fast_diagnostics;
      sim::FastPathOutcome fast_outcome = sim::FastPathOutcome::Disabled;
      const auto solved = context->try_solve(faulted, fault, *ws, fast_diagnostics, fast_outcome);
      if (solved.has_value()) {
        double margin = std::numeric_limits<double>::infinity();
        const EffectClass effect = classify(options_, baseline, *solved, &margin);
        if (margin > kClassifyGuard) {
          row.solver_iterations = fast_diagnostics.iterations;
          row.ladder_rung = 0;
          row.outcome = FaultOutcome::Converged;
          row.effect = effect;
          row.safety_related = effect != EffectClass::None;
          metrics.sparse_rows.add();
          return row;
        }
        metrics.near_threshold.add();
      }
      metrics.sparse_fallbacks.add();
    }

    // Naive oracle: always the dense kernel, whatever the session-level
    // sparse default — the FMEDA byte-identity contract is "same bytes as a
    // dense-only campaign", and every gate above funnels doubt down here.
    sim::SolveOptions naive = solver;
    naive.sparse = false;
    sim::SolveDiagnostics diagnostics;
    const auto after = sim::try_dc_operating_point(faulted, naive, diagnostics);
    row.solver_iterations = diagnostics.iterations;
    row.ladder_rung = diagnostics.ladder_rung;
    if (after.has_value()) {
      row.outcome = diagnostics.ladder_rung == 0 ? FaultOutcome::Converged
                                                 : FaultOutcome::RecoveredViaLadder;
      if (diagnostics.ladder_rung != 0) {
        row.outcome_detail = std::string(to_string(diagnostics.strategy)) + " after " +
                             std::to_string(diagnostics.iterations) + " iterations";
      }
      row.effect = classify(options_, baseline, *after);
      row.safety_related = row.effect != EffectClass::None;
    } else {
      // The faulted circuit did not solve. Conservatively safety-related
      // (the effect cannot be ruled benign), but the *reason* is structured
      // instead of being overloaded onto the effect class.
      row.outcome = diagnostics.failure == sim::SolveFailure::Singular
                        ? FaultOutcome::Singular
                        : FaultOutcome::BudgetExhausted;
      row.outcome_detail = std::string(to_string(diagnostics.failure)) + ": " +
                           diagnostics.message;
      row.safety_related = true;
      row.effect = EffectClass::None;
    }
  } catch (const AnalysisError& error) {
    // Fault kind unknown, or not applicable to this element kind (e.g.
    // RamFailure on a resistor): Algorithm-1-style structured outcome.
    row.outcome = FaultOutcome::NotApplicable;
    row.outcome_detail = error.what();
  } catch (const SimulationError& error) {
    // inject_fault on an unknown element — a model inconsistency, not a
    // solver failure; the injection itself is not applicable.
    row.outcome = FaultOutcome::NotApplicable;
    row.outcome_detail = error.what();
  } catch (const std::exception& error) {
    // Failure containment: anything escaping the classified paths becomes a
    // structured Crashed outcome instead of tearing down the whole campaign.
    // Conservatively safety-related — the effect cannot be ruled benign.
    row.outcome = FaultOutcome::Crashed;
    row.outcome_detail = error.what();
    row.safety_related = true;
    row.effect = EffectClass::None;
  } catch (...) {
    row.outcome = FaultOutcome::Crashed;
    row.outcome_detail = "unknown exception";
    row.safety_related = true;
    row.effect = EffectClass::None;
  }
  return row;
}

FmedaRow CampaignRunner::run_task(const Task& task, const sim::OperatingPoint& baseline,
                                  const sim::CampaignSparseContext* context,
                                  sim::CampaignSparseContext::Workspace* ws) const {
  CampaignMetrics& metrics = CampaignMetrics::get();
  metrics.tasks.add();
  obs::Span span("campaign.task", &metrics.task_seconds);

  FmedaRow row = run_task_once(task, baseline, options_.solver, 0, context, ws);

  // Containment retries: a crashed or budget-exhausted task gets up to
  // max_retries re-runs, each with a fresh solve (the ladder restarts from
  // scratch) under a budget scaled by retry_budget_scale — a hung solve must
  // not hang twice as long on retry. The *last* attempt wins; its retry
  // count is carried on the row so the journal and the warnings reflect what
  // actually happened.
  const CampaignExecution& execution = options_.execution;
  for (int attempt = 1;
       attempt <= execution.max_retries && (row.outcome == FaultOutcome::Crashed ||
                                            row.outcome == FaultOutcome::BudgetExhausted);
       ++attempt) {
    metrics.retries.add();
    sim::SolveOptions tighter = options_.solver;
    tighter.max_newton_iterations = std::max(
        1, static_cast<int>(tighter.max_newton_iterations * execution.retry_budget_scale));
    if (tighter.max_wall_clock_seconds > 0) {
      tighter.max_wall_clock_seconds *= execution.retry_budget_scale;
    }
    // Retries deliberately skip the fast path: a crash/budget outcome is
    // exactly the suspicious case the naive ladder must re-decide.
    row = run_task_once(task, baseline, tighter, attempt, nullptr, nullptr);
    row.retries = attempt;
  }

  // Step 4b: deploy the best applicable safety mechanism, if any (const
  // lookup, safe from worker threads).
  if (row.safety_related && sm_model_ != nullptr) {
    if (const SafetyMechanismSpec* sm =
            sm_model_->best(task.component->block_type, task.mode->name)) {
      row.safety_mechanism = sm->name;
      row.sm_coverage = sm->coverage;
      row.sm_cost_hours = sm->cost_hours;
    }
  }
  count_outcome(row);
  return row;
}

FmedaResult CampaignRunner::run() const {
  CampaignMetrics& metrics = CampaignMetrics::get();
  metrics.runs.add();
  obs::Span run_span("campaign.run", &metrics.run_seconds);

  const CampaignExecution& execution = options_.execution;
  if (execution.shard_count < 1 || execution.shard_index < 0 ||
      execution.shard_index >= execution.shard_count) {
    throw AnalysisError("invalid shard spec " + std::to_string(execution.shard_index) + "/" +
                        std::to_string(execution.shard_count) +
                        " (need 0 <= index < count)");
  }
  metrics.shards.set(static_cast<double>(execution.shard_count));
  // Every artefact this process emits from here on — heartbeat, registry
  // snapshot, Chrome trace — carries the shard identity, so the fold side
  // can reassemble the unsharded view.
  obs::set_shard_identity({execution.shard_index, execution.shard_count});

  FmedaResult result;
  result.system = "circuit";
  result.warnings = skip_warnings_;

  // This shard's slice of the task list; `rows`/`done` are indexed by
  // position within the slice, records in the journal by global task index.
  const std::vector<size_t> shard = shard_task_indices();
  std::vector<FmedaRow> rows(shard.size());
  std::vector<char> done(shard.size(), 0);

  // Flight recorder: a throttled heartbeat next to the journal (or wherever
  // heartbeat_path points). Worker rows are sized to the configured job
  // count; the pool may end up smaller when few tasks are pending.
  const unsigned jobs_configured =
      options_.jobs > 0 ? static_cast<unsigned>(options_.jobs)
                        : std::max(1u, std::thread::hardware_concurrency());
  obs::ProgressReporterOptions reporter_options;
  reporter_options.path = execution.published_heartbeat_path();
  reporter_options.phase = "campaign";
  reporter_options.total = shard.size();
  reporter_options.workers = static_cast<int>(jobs_configured);
  reporter_options.interval_seconds = execution.heartbeat_interval_seconds;
  obs::ProgressReporter reporter(reporter_options);

  // Resume: replay the journal's checkpointed tasks, then keep appending to
  // its valid prefix. Replay/trim notes go to the log, NOT to
  // result.warnings — a resumed run must stay byte-identical to an
  // uninterrupted one.
  std::unique_ptr<CampaignJournal> journal;
  if (!execution.journal_path.empty()) {
    const CampaignJournalHeader header = journal_header();
    const CampaignJournalReplay replay =
        replay_campaign_journal(execution.journal_path, &header);
    if (replay.compatible) {
      size_t replayed = 0;
      for (size_t s = 0; s < shard.size(); ++s) {
        const auto it = replay.rows.find(shard[s]);
        if (it != replay.rows.end()) {
          rows[s] = it->second;
          done[s] = 1;
          ++replayed;
          reporter.task_done(0, to_string(rows[s].outcome));
        }
      }
      metrics.checkpoint_replays.add(static_cast<double>(replayed));
      if (replay.dropped_lines > 0) metrics.journal_trims.add();
      if (!replay.note.empty()) {
        obs::log(obs::LogLevel::Warn,
                 "campaign journal '" + execution.journal_path + "': " + replay.note);
      }
      obs::log(obs::LogLevel::Info,
               "campaign journal '" + execution.journal_path + "': replayed " +
                   std::to_string(replayed) + " of " + std::to_string(shard.size()) +
                   " task(s)");
      journal = std::make_unique<CampaignJournal>(execution.journal_path, header,
                                                  skip_warnings_, &replay);
    } else {
      if (std::filesystem::exists(execution.journal_path) && !replay.note.empty()) {
        obs::log(obs::LogLevel::Warn, "campaign journal '" + execution.journal_path +
                                          "': " + replay.note + "; starting fresh");
      }
      journal = std::make_unique<CampaignJournal>(execution.journal_path, header,
                                                  skip_warnings_, nullptr);
    }
  }

  std::vector<size_t> pending;
  for (size_t s = 0; s < shard.size(); ++s) {
    if (!done[s]) pending.push_back(s);
  }

  // Step 1: Initialise — baseline operating point (ladder-assisted; a design
  // whose *baseline* does not solve cannot be analysed at all). A fully
  // replayed campaign skips the baseline: there is nothing left to compare.
  std::optional<sim::OperatingPoint> baseline;
  if (!pending.empty()) {
    sim::SolveDiagnostics baseline_diagnostics;
    {
      obs::Span baseline_span("campaign.baseline");
      // The baseline anchors every row's classification, so it always runs
      // on the dense kernel: campaign bytes must not depend on the sparse
      // default (the fast path is gated against exactly this baseline).
      sim::SolveOptions baseline_solver = options_.solver;
      baseline_solver.sparse = false;
      baseline = sim::try_dc_operating_point(built_.circuit, baseline_solver,
                                             baseline_diagnostics);
    }
    if (!baseline.has_value()) {
      const std::string detail = "baseline operating point did not solve (" +
                                 std::string(to_string(baseline_diagnostics.failure)) +
                                 ": " + baseline_diagnostics.message + ")";
      if (!execution.best_effort) throw SimulationError(detail);
      // Degraded mode: every pending fault becomes NotApplicable with the
      // baseline failure as its structured detail. Degraded rows are NOT
      // journaled — they carry no computed result, and a later run against a
      // fixed baseline must re-execute them.
      for (const size_t s : pending) {
        const Task& task = tasks_[shard[s]];
        FmedaRow& row = rows[s];
        row.component = task.component->path;
        row.component_type = task.reliability->component_type;
        row.fit = task.reliability->fit;
        row.failure_mode = task.mode->name;
        row.distribution = task.mode->distribution;
        row.outcome = FaultOutcome::NotApplicable;
        row.outcome_detail = detail + "; best-effort degraded result";
        count_outcome(row);
        done[s] = 1;
        reporter.task_done(0, to_string(row.outcome));
      }
      result.warnings.push_back(detail + "; best-effort: " +
                                std::to_string(pending.size()) +
                                " fault(s) degraded to NotApplicable");
      pending.clear();
    }
  }

  // Step 1b: the factor-once solve context — one nominal stamp plan and one
  // symbolic analysis, shared read-only by every worker. Faults that keep
  // the nominal stamp stream refactor numerics only; faults it declines (or
  // that trip any correctness gate inside try_solve) fall back to the
  // classic per-fault dense ladder, so results are byte-identical with the
  // context on or off.
  std::optional<sim::CampaignSparseContext> context;
  if (options_.solver.sparse && !pending.empty()) {
    obs::Span context_span("campaign.sparse_context");
    context.emplace(built_.circuit, options_.solver);
    if (!context->usable()) context.reset();
  }

  // Step 2: execute the pending fault tasks. Faults are independent
  // re-simulations of copies of the circuit, so this is embarrassingly
  // parallel; results land in pre-assigned slots, keeping output
  // deterministic for any job count.
  if (!pending.empty()) {
    auto process = [&](size_t s, sim::CampaignSparseContext::Workspace& ws, int worker_id) {
      rows[s] = run_task(tasks_[shard[s]], *baseline, context ? &*context : nullptr,
                         context ? &ws : nullptr);
      if (journal != nullptr) {
        journal->append(shard[s], rows[s]);
        metrics.journal_appends.add();
      }
      done[s] = 1;
      // Heartbeat tick after the journal append: a shard killed mid-task
      // never reports work its journal does not hold.
      reporter.task_done(worker_id, to_string(rows[s].outcome));
    };

    unsigned jobs = jobs_configured;
    if (pending.size() < jobs) jobs = static_cast<unsigned>(pending.size());
    metrics.jobs.set(static_cast<double>(jobs));

    if (jobs <= 1) {
      sim::CampaignSparseContext::Workspace ws;
      for (const size_t s : pending) process(s, ws, 0);
    } else {
      const CrashHooks hooks = CrashHooks::from_env();
      std::atomic<size_t> next{0};
      std::atomic<bool> failed{false};
      std::exception_ptr first_error;
      std::mutex error_mutex;
      auto worker = [&](int worker_id) {
        sim::CampaignSparseContext::Workspace ws;
        try {
          for (size_t i = next.fetch_add(1); i < pending.size(); i = next.fetch_add(1)) {
            const size_t s = pending[i];
            if (hooks.worker_die >= 0 &&
                static_cast<size_t>(hooks.worker_die) == shard[s]) {
              throw std::runtime_error(
                  "injected worker death (DECISIVE_CAMPAIGN_WORKER_DIE)");
            }
            process(s, ws, worker_id);
          }
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!failed.exchange(true)) first_error = std::current_exception();
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(jobs);
      for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker, static_cast<int>(t));
      for (auto& thread : pool) thread.join();

      if (failed.load()) {
        // Circuit breaker: a worker died *outside* task containment (task
        // exceptions are already classified as Crashed rows — this is
        // something worse, e.g. a journal I/O error or an allocator
        // failure). Downgrade to serial execution on this thread and finish
        // whatever the pool left behind rather than losing the campaign.
        metrics.breaker_trips.add();
        std::string reason = "unknown exception";
        try {
          std::rethrow_exception(first_error);
        } catch (const std::exception& error) {
          reason = error.what();
        } catch (...) {
        }
        obs::log(obs::LogLevel::Warn,
                 "campaign worker died (" + reason +
                     "); circuit breaker tripped — finishing serially");
        metrics.jobs.set(1.0);
        sim::CampaignSparseContext::Workspace ws;
        for (const size_t s : pending) {
          if (!done[s]) process(s, ws, 0);
        }
      }
    }
  }

  // Step 3: assemble — derive the display warnings from the structured
  // outcomes, in task order (single source of truth: the rows themselves).
  for (auto& row : rows) {
    std::string warning = outcome_warning(row);
    if (!warning.empty()) result.warnings.push_back(std::move(warning));
    result.rows.push_back(std::move(row));
  }
  if (!result.has_safety_related()) {
    result.warnings.push_back(
        "no safety-related hardware identified; the SPFM denominator is empty and spfm() "
        "reports 1.0 by convention — this is not an ASIL-D claim");
  }
  reporter.finish();
  return result;
}

}  // namespace decisive::core
