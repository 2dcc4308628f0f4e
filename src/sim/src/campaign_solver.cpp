#include "decisive/sim/campaign_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "mna.hpp"

namespace decisive::sim {

namespace {

/// Residual acceptance for a fast-path solve, relative to max(1, ||rhs||inf).
constexpr double kResidualRelative = 1e-8;

/// Knife-edge guard on the MCU brown-out comparison (supply >= min_supply):
/// the sparse iterate differs from the naive dense one in the last ulps, so a
/// supply this close to the threshold must be decided by the naive path.
constexpr double kMcuSupplyGuard = 1e-6;

/// Convergence-margin guard: a warm start that barely squeaks under the
/// iteration budget could converge where the cold-started naive path would
/// not, changing the row's outcome class. Solves using >= 90% of the budget
/// are handed back to the naive path.
[[nodiscard]] bool near_iteration_budget(int iterations, const SolveOptions& opt) {
  return iterations * 10 >= opt.max_newton_iterations * 9;
}

/// Every context solve is a DC solve: no companion sources.
const mna::CompanionState kDcState{};

/// Matrix sink of a sparse refill: adds each stamp into its frozen CSC slot,
/// walking the slot sequence from stream position `t`; `ok` drops when the
/// stamps run past `end` (the circuit no longer matches the plan).
struct SlotCursor {
  const std::int32_t* slot;
  double* value;
  std::size_t t;
  std::size_t end;
  bool ok = true;

  void operator()(std::size_t, std::size_t, double v) {
    if (t < end) {
      value[static_cast<std::size_t>(slot[t++])] += v;
    } else {
      ok = false;
    }
  }
  [[nodiscard]] bool stopped_at(std::size_t position) const { return ok && t == position; }
};

/// One circuit structure's frozen sparse assembly plan: the CSC pattern of
/// the DC stamp pass plus the slot sequence that replays every later
/// assembly as straight indexed adds. Building it runs the stamp pass once
/// with a coordinate-recording sink; this is also where the per-structure
/// shape validation happens exactly once — refills never re-derive the
/// pattern. Const after build, so one plan serves every campaign worker.
struct SparsePlan {
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;   ///< CSC slot of each recorded stamp, in order
  std::vector<std::size_t> element_begin;  ///< stream position of each element's
                                           ///< first stamp; back() = stream length
  std::uint64_t fingerprint = 0;     ///< pattern.fingerprint(), computed once

  void build(const Circuit& circuit, const SolveOptions& opt, const mna::Structure& st) {
    sparse::SparseMetrics::get().plan_builds.add();
    sparse::PatternBuilder builder;
    builder.begin(st.dim);
    std::vector<double> rhs_sink(st.dim, 0.0);
    const std::size_t count = circuit.elements().size();
    const std::vector<double> diode_guess(count, 0.6);
    auto record = [&](std::size_t r, std::size_t c, double) { builder.add(r, c); };
    mna::stamp_gmin(opt, st, record);
    element_begin.resize(count + 1);
    for (std::size_t i = 0; i < count; ++i) {
      element_begin[i] = builder.recorded();
      mna::stamp_element(circuit, i, opt, kDcState, st, diode_guess, record, rhs_sink.data());
    }
    element_begin[count] = builder.recorded();
    builder.freeze(pattern, slots);
    fingerprint = pattern.fingerprint();
  }

  /// The part of a refill that holds for a whole Newton solve of `circuit`:
  /// gmin and every element but the diodes, whose stamps alone move with the
  /// linearisation point. Writes the partial sums into `fixed_values` and
  /// `fixed_rhs` (both resized and zeroed first) and lists the diodes for
  /// refill_diodes. Returns false when `circuit` does not match the plan's
  /// stamp stream.
  [[nodiscard, gnu::flatten]] bool refill_fixed(const Circuit& circuit, const SolveOptions& opt,
                                                const mna::Structure& st,
                                                std::vector<double>& fixed_values,
                                                std::vector<double>& fixed_rhs,
                                                std::vector<std::size_t>& diodes) const {
    const auto& elements = circuit.elements();
    if (element_begin.size() != elements.size() + 1) return false;
    fixed_values.assign(pattern.nnz(), 0.0);
    fixed_rhs.assign(st.dim, 0.0);
    diodes.clear();
    const std::vector<double> no_diode_v;  // read by diode stamps only, skipped here
    SlotCursor cursor{slots.data(), fixed_values.data(), 0, element_begin[0]};
    mna::stamp_gmin(opt, st, cursor);
    if (!cursor.stopped_at(element_begin[0])) return false;
    for (std::size_t i = 0; i < elements.size(); ++i) {
      if (elements[i].kind == ElementKind::Diode) {
        diodes.push_back(i);
        continue;
      }
      cursor.t = element_begin[i];
      cursor.end = element_begin[i + 1];
      mna::stamp_element(circuit, i, opt, kDcState, st, no_diode_v, cursor, fixed_rhs.data());
      if (!cursor.stopped_at(element_begin[i + 1])) return false;
    }
    return true;
  }

  /// Completes one Newton iteration's refill: `values` and `rhs` hold a copy
  /// of the fixed part, and every listed diode's stamps, linearised at
  /// `diode_v`, are added on top. Returns false on a stamp-stream mismatch.
  [[nodiscard, gnu::flatten]] bool refill_diodes(const Circuit& circuit, const SolveOptions& opt,
                                                 const mna::Structure& st,
                                                 const std::vector<double>& diode_v,
                                                 const std::vector<std::size_t>& diodes,
                                                 double* values, double* rhs) const {
    SlotCursor cursor{slots.data(), values, 0, 0};
    for (const std::size_t i : diodes) {
      cursor.t = element_begin[i];
      cursor.end = element_begin[i + 1];
      mna::stamp_element(circuit, i, opt, kDcState, st, diode_v, cursor, rhs);
      if (!cursor.stopped_at(element_begin[i + 1])) return false;
    }
    return true;
  }
};

/// The fill formula, in L+U entries: sparse_max_fill times a dense factor of
/// max(n, kFillFloorDim) unknowns. The floor keeps small systems, whose
/// dense-relative fill is high but cheap, from being rejected. A zero budget
/// rejects every factorisation.
constexpr std::size_t kFillFloorDim = 48;

[[nodiscard]] double fill_budget(std::size_t dim, const SolveOptions& opt) {
  const double n = static_cast<double>(std::max(dim, kFillFloorDim));
  return opt.sparse_max_fill * n * n;
}

/// How a FactorStep's next factorisation starts.
enum class FactorStart {
  Refactor,  ///< numeric replay over the symbolic the SparseLu holds (own or adopted)
  Partial,   ///< partial_factor from `base` across deleted unknowns
  Full,      ///< fresh ordering, symbolic and numeric factorisation
};

/// The one sparse factor step, taken once per Newton iteration of the
/// nominal solve and of every fault. The first call starts as `start` says;
/// every later call refactors. A stale pivot re-pivots once with a fresh
/// factor(), and a failed partial_factor falls back to factor(). Every new
/// symbolic is held against fill_budget. On failure the step counts its one
/// fallback reason, sets `message` and returns false; the fault then goes
/// to the dense kernel.
struct FactorStep {
  FactorStart start = FactorStart::Full;
  // The base of a Partial start (see SparseLu::partial_factor).
  const sparse::Symbolic* base = nullptr;
  const sparse::Pattern* base_pattern = nullptr;
  const std::vector<std::int32_t>* new_of_old = nullptr;

  [[nodiscard]] bool operator()(sparse::SparseLu& lu, const sparse::Pattern& pattern,
                                const double* values, const SolveOptions& opt,
                                std::string& message) {
    sparse::SparseMetrics& metrics = sparse::SparseMetrics::get();
    obs::Counter* reason = &metrics.fallback_singular;
    bool fresh = start != FactorStart::Refactor;  // a new symbolic comes out
    bool ok = false;
    if (!fresh) {
      ok = lu.refactor(pattern, values, &message);
      if (!ok) {
        fresh = true;
        ok = lu.factor(pattern, values, &message);
        if (ok) {
          metrics.repivots.add();
        } else {
          reason = &metrics.fallback_pivot;
        }
      }
    } else {
      ok = (start == FactorStart::Partial &&
            lu.partial_factor(*base, *base_pattern, *new_of_old, pattern, values, nullptr,
                              &message)) ||
           lu.factor(pattern, values, &message);
    }
    if (ok && fresh && static_cast<double>(lu.lu_nnz()) > fill_budget(pattern.n, opt)) {
      reason = &metrics.fallback_fill;
      message = "sparse factorisation fill exceeded the density gate";
      ok = false;
    }
    if (!ok) {
      reason->add();
      return false;
    }
    start = FactorStart::Refactor;
    return true;
  }
};

}  // namespace

std::string_view to_string(FastPathOutcome outcome) noexcept {
  switch (outcome) {
    case FastPathOutcome::Solved: return "solved";
    case FastPathOutcome::Structural: return "structural";
    case FastPathOutcome::Conditioning: return "conditioning";
    case FastPathOutcome::NotConverged: return "not-converged";
    case FastPathOutcome::NearThreshold: return "near-threshold";
    case FastPathOutcome::Disabled: return "disabled";
  }
  return "disabled";
}

StampClass dc_stamp_class(ElementKind kind) noexcept {
  switch (kind) {
    case ElementKind::Resistor:
    case ElementKind::Mcu:
    case ElementKind::Switch:
    case ElementKind::Diode:
      return StampClass::Conductance;
    case ElementKind::VSource:
    case ElementKind::CurrentSensor:
    case ElementKind::Inductor:
      return StampClass::Branch;
    case ElementKind::Capacitor:
    case ElementKind::ISource:
    case ElementKind::VoltageSensor:
      return StampClass::None;
  }
  return StampClass::None;
}

StampPlan build_stamp_plan(const Circuit& circuit, const SolveOptions& options) {
  SparsePlan plan;
  plan.build(circuit, options, mna::analyze_structure(circuit, false));
  return StampPlan{std::move(plan.pattern), std::move(plan.slots), plan.fingerprint};
}

// ---------------------------------------------------------------------------
// CampaignSparseContext

struct CampaignSparseContext::Workspace::Impl {
  SparsePlan own_plan;   ///< a stream-changing fault's own plan
  mna::Structure own_structure;
  std::vector<double> fixed_values;  ///< the circuit's diode-free stamps (CSC)
  std::vector<double> fixed_rhs;
  std::vector<std::size_t> diodes;   ///< the circuit's diodes
  std::vector<double> values;  ///< CSC numeric array of the current iteration
  sparse::SparseLu slu;
  std::vector<double> rhs;     ///< final-iteration RHS (kept for the residual gate)
  std::vector<double> residual;

  /// The one Newton solve step of the context, shared by the nominal solve
  /// and every fault: everything but the diode stamps is fixed for the whole
  /// solve, so it is stamped once, and each Newton iteration copies it, adds
  /// the diodes and takes one FactorStep. Returns std::nullopt when
  /// `circuit` does not match `plan`'s stamp stream.
  std::optional<mna::NewtonAttempt> newton(const Circuit& circuit, const SolveOptions& opt,
                                           const SparsePlan& plan, const mna::Structure& st,
                                           const mna::NewtonSeed* seed, FactorStep& step,
                                           std::chrono::steady_clock::time_point start) {
    if (!plan.refill_fixed(circuit, opt, st, fixed_values, fixed_rhs, diodes)) {
      return std::nullopt;
    }
    auto solve_step = [&](const std::vector<double>& diode_v, std::vector<double>& x_out,
                          SolveFailure& failure, std::string& message) {
      values = fixed_values;
      rhs = fixed_rhs;
      failure = SolveFailure::Singular;
      if (!plan.refill_diodes(circuit, opt, st, diode_v, diodes, values.data(), rhs.data())) {
        message = "sparse plan does not match the stamped circuit";
        return false;
      }
      if (!step(slu, plan.pattern, values.data(), opt, message)) return false;
      // Solve into the Newton buffer so `rhs` still holds the final-iteration
      // RHS for the residual gate.
      x_out = rhs;
      slu.solve_in_place(x_out.data());
      return true;
    };
    return mna::newton_attempt(circuit, opt, st, seed, mna::deadline_after(start, opt),
                               solve_step);
  }
};

CampaignSparseContext::Workspace::Workspace() : impl_(std::make_unique<Impl>()) {}
CampaignSparseContext::Workspace::~Workspace() = default;
CampaignSparseContext::Workspace::Workspace(Workspace&&) noexcept = default;
CampaignSparseContext::Workspace& CampaignSparseContext::Workspace::operator=(
    Workspace&&) noexcept = default;

struct CampaignSparseContext::Impl {
  Circuit nominal;
  SolveOptions opt;
  mna::Structure structure;
  mna::NewtonSeed seed;          // nominal converged state: warm start for faults
  SparsePlan plan;               // nominal stamp plan, shared by same-stream faults
  std::shared_ptr<const sparse::Symbolic> symbolic;  // nominal symbolic analysis
  // Element index by name (views into `nominal`): one hash per fault
  // instead of a name scan over the netlist.
  std::unordered_map<std::string_view, std::size_t> index_of;
};

CampaignSparseContext::CampaignSparseContext(const Circuit& nominal,
                                             const SolveOptions& options)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.nominal = nominal;
  im.opt = options;
  im.structure = mna::analyze_structure(im.nominal, false);
  if (im.structure.dim == 0) return;

  // Nominal plain-Newton solve on the sparse kernel, through the same solve
  // step as every fault; it freezes the stamp plan and symbolic analysis.
  im.plan.build(im.nominal, options, im.structure);
  Workspace::Impl w;
  FactorStep step{FactorStart::Full};
  std::optional<mna::NewtonAttempt> attempt = w.newton(
      im.nominal, options, im.plan, im.structure, nullptr, step,
      std::chrono::steady_clock::now());
  if (!attempt.has_value()) return;
  if (!attempt->converged) {
    // A failed factor step has counted its own reason; anything else is
    // Newton giving up. Either way the campaign stays on the dense kernel.
    if (attempt->failure != SolveFailure::Singular) {
      sparse::SparseMetrics::get().fallback_not_converged.add();
    }
    return;
  }
  nominal_point_ = mna::make_operating_point(im.nominal, attempt->result);
  im.seed.x = std::move(attempt->x);
  im.seed.diode_v = std::move(attempt->diode_v);
  im.symbolic = w.slu.symbolic();
  const auto& elements = im.nominal.elements();
  im.index_of.reserve(elements.size());
  for (std::size_t i = 0; i < elements.size(); ++i) im.index_of.emplace(elements[i].name, i);
  usable_ = true;
}

CampaignSparseContext::~CampaignSparseContext() = default;
CampaignSparseContext::CampaignSparseContext(CampaignSparseContext&&) noexcept = default;
CampaignSparseContext& CampaignSparseContext::operator=(CampaignSparseContext&&) noexcept =
    default;

bool CampaignSparseContext::keeps_stamp_stream(const Circuit& faulted,
                                               const Fault& fault) const {
  if (!usable_) return false;
  const Circuit& nominal = impl_->nominal;
  const auto it = impl_->index_of.find(fault.element);
  if (it == impl_->index_of.end() || faulted.node_count() != nominal.node_count() ||
      faulted.elements().size() != nominal.elements().size()) {
    return false;
  }
  // inject_fault edits this one element in place, so every other element
  // stamps exactly as in the nominal circuit; an unchanged class keeps the
  // branch-unknown set, hence the dimension and the branch numbering.
  const Element& before = nominal.elements()[it->second];
  const Element& after = faulted.elements()[it->second];
  return after.a == before.a && after.b == before.b &&
         dc_stamp_class(after.kind) == dc_stamp_class(before.kind);
}

StampPlan CampaignSparseContext::nominal_plan() const {
  const SparsePlan& plan = impl_->plan;
  return StampPlan{plan.pattern, plan.slots, plan.fingerprint};
}

std::optional<OperatingPoint> CampaignSparseContext::try_solve(
    const Circuit& faulted, const Fault& fault, Workspace& ws, SolveDiagnostics& diagnostics,
    FastPathOutcome& outcome) const {
  if (!usable_) {
    outcome = FastPathOutcome::Disabled;
    return std::nullopt;
  }
  const Impl& im = *impl_;
  Workspace::Impl& w = *ws.impl_;

  // The first factorisation: an unchanged pattern adopts the shared nominal
  // symbolic (numeric replay only); a deleted branch unknown reuses the
  // untouched symbolic prefix via partial_factor; anything else pays a full
  // factorisation (still one-off — later iterations refactor).
  FactorStep step{FactorStart::Refactor};
  std::vector<std::int32_t> new_of_old;
  const SparsePlan* plan = &im.plan;
  const mna::Structure* st = &im.structure;
  if (!keeps_stamp_stream(faulted, fault)) {
    w.own_structure = mna::analyze_structure(faulted, false);
    st = &w.own_structure;
    if (st->dim == 0 || st->dim > im.structure.dim ||
        st->n_nodes != im.structure.n_nodes) {
      // Faults only ever *remove* branch unknowns (Open/Short turn a source
      // or DC inductor into a resistor); anything else is out of contract.
      outcome = FastPathOutcome::Structural;
      return std::nullopt;
    }
    w.own_plan.build(faulted, im.opt, *st);
    plan = &w.own_plan;
    if (st->dim < im.structure.dim) {
      // Node rows are untouched and surviving branch rows keep their element
      // order, so the old-to-new unknown map is strictly increasing over
      // survivors — exactly partial_factor's contract.
      const int keep_nodes = im.structure.n_nodes - 1;
      new_of_old.assign(im.structure.dim, -1);
      for (int r = 0; r < keep_nodes; ++r) new_of_old[static_cast<std::size_t>(r)] = r;
      for (std::size_t i = 0; i < im.nominal.elements().size(); ++i) {
        const int old_b = im.structure.branch_index[i];
        if (old_b < 0) continue;
        const int new_b = st->branch_index[i];
        new_of_old[static_cast<std::size_t>(keep_nodes + old_b)] =
            new_b < 0 ? -1 : keep_nodes + new_b;
      }
      step = {FactorStart::Partial, im.symbolic.get(), &im.plan.pattern, &new_of_old};
    } else if (plan->fingerprint != im.plan.fingerprint) {
      step.start = FactorStart::Full;
    }
  }
  if (step.start == FactorStart::Refactor) {
    // The workspace usually still holds the shared symbolic from its last
    // fault; only a repivot or a stream-changing fault replaced it.
    if (w.slu.symbolic() != im.symbolic) w.slu.adopt(im.symbolic);
    sparse::SparseMetrics::get().symbolic_reuse.add();
  }

  const auto start = std::chrono::steady_clock::now();
  const std::size_t dim = st->dim;
  std::optional<mna::NewtonAttempt> solved =
      w.newton(faulted, im.opt, *plan, *st, &im.seed, step, start);
  if (!solved.has_value()) {
    outcome = FastPathOutcome::Structural;  // the stamp stream does not match the plan
    return std::nullopt;
  }
  mna::NewtonAttempt& attempt = *solved;
  if (!attempt.converged) {
    outcome = (attempt.failure == SolveFailure::IterationBudget ||
               attempt.failure == SolveFailure::WallClockBudget ||
               attempt.failure == SolveFailure::NonFinite)
                  ? FastPathOutcome::NotConverged
                  : FastPathOutcome::Conditioning;
    return std::nullopt;
  }
  if (near_iteration_budget(attempt.iterations, im.opt)) {
    outcome = FastPathOutcome::NotConverged;
    return std::nullopt;
  }

  // Residual gate against the *exact* faulted matrix (w.values and w.rhs are
  // still those of the final linearisation): r = rhs - A x must vanish to
  // solver precision. The naive path never checks a residual, so gating the
  // accepted solution is strictly stronger.
  {
    const std::vector<double>& x = attempt.x;
    double rhs_norm = 0.0;
    for (std::size_t r = 0; r < dim; ++r) rhs_norm = std::max(rhs_norm, std::abs(w.rhs[r]));
    w.residual.assign(w.rhs.begin(), w.rhs.end());
    const sparse::Pattern& pattern = plan->pattern;
    for (std::size_t c = 0; c < dim; ++c) {
      const double xc = x[c];
      if (xc == 0.0) continue;
      for (std::int32_t p = pattern.col_ptr[c]; p < pattern.col_ptr[c + 1]; ++p) {
        w.residual[static_cast<std::size_t>(pattern.row_ind[static_cast<std::size_t>(p)])] -=
            w.values[static_cast<std::size_t>(p)] * xc;
      }
    }
    double res_norm = 0.0;
    for (std::size_t r = 0; r < dim; ++r) res_norm = std::max(res_norm, std::abs(w.residual[r]));
    if (!std::isfinite(res_norm) || res_norm > kResidualRelative * std::max(1.0, rhs_norm)) {
      outcome = FastPathOutcome::Conditioning;
      return std::nullopt;
    }
  }

  // Knife-edge gate: ulp-level differences from the naive dense path must
  // not flip a discrete MCU brown-out reading.
  for (const Element& e : faulted.elements()) {
    if (e.kind != ElementKind::Mcu) continue;
    const double supply = attempt.result.node_voltage[static_cast<std::size_t>(e.a)] -
                          attempt.result.node_voltage[static_cast<std::size_t>(e.b)];
    if (std::abs(supply - e.min_supply) < kMcuSupplyGuard) {
      outcome = FastPathOutcome::NearThreshold;
      return std::nullopt;
    }
  }

  diagnostics = SolveDiagnostics{};
  diagnostics.converged = true;
  diagnostics.strategy = SolveStrategy::Newton;
  diagnostics.ladder_rung = 0;
  diagnostics.iterations = attempt.iterations;
  diagnostics.residual = attempt.residual;
  diagnostics.failure = SolveFailure::None;
  diagnostics.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  outcome = FastPathOutcome::Solved;
  return mna::make_operating_point(faulted, attempt.result);
}

}  // namespace decisive::sim
