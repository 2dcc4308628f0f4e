#include "decisive/sim/campaign_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
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

/// Fill gate of the campaign path, in L+U entries. One-shot solves compare
/// against sparse_max_fill * dim^2, which every small MNA system exceeds
/// (a handful of entries per column is already a quarter of a 12x12). Below
/// the one-shot crossover a dense-ish factor is as cheap as the dense
/// kernel's, so the campaign judges fill against a dense factor of at least
/// sparse_min_dim unknowns. A zero budget still rejects every factorisation.
[[nodiscard]] double fill_budget(std::size_t dim, const SolveOptions& opt) {
  const double n = static_cast<double>(
      std::max(dim, static_cast<std::size_t>(std::max(opt.sparse_min_dim, 1))));
  return opt.sparse_max_fill * n * n;
}

[[nodiscard]] mna::Deadline deadline_after(std::chrono::steady_clock::time_point start,
                                           const SolveOptions& opt) {
  if (opt.max_wall_clock_seconds <= 0.0) return std::nullopt;
  return start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(opt.max_wall_clock_seconds));
}

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
  mna::SparsePlan plan;
  plan.build(circuit, options, mna::CompanionState{}, mna::analyze_structure(circuit, false));
  return StampPlan{std::move(plan.pattern), std::move(plan.slots), plan.fingerprint};
}

// ---------------------------------------------------------------------------
// CampaignSparseContext

struct CampaignSparseContext::Workspace::Impl {
  mna::SparsePlan own_plan;   ///< a stream-changing fault's own plan
  mna::Structure own_structure;
  std::vector<double> fixed_values;  ///< the fault's diode-free stamps (CSC)
  std::vector<double> fixed_rhs;
  std::vector<std::size_t> diodes;   ///< the faulted circuit's diodes
  std::vector<double> values;  ///< CSC numeric array of the current iteration
  sparse::SparseLu<double> slu;
  std::vector<double> rhs;     ///< final-iteration RHS (kept for the residual gate)
  std::vector<double> residual;
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
  mna::CompanionState dc_state;  // DC: no companion sources
  mna::NewtonSeed seed;          // nominal converged state: warm start for faults
  mna::SparsePlan plan;          // nominal stamp plan, shared by same-stream faults
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
  if (!options.sparse) return;

  // Nominal plain-Newton solve on the sparse kernel at any dimension, under
  // the campaign's fill gate; its workspace hands over the frozen stamp plan
  // and symbolic analysis.
  SolveOptions nominal_opt = options;
  nominal_opt.sparse_min_dim = 1;
  if (im.structure.dim > 0) {
    const double dim = static_cast<double>(im.structure.dim);
    nominal_opt.sparse_max_fill = fill_budget(im.structure.dim, options) / (dim * dim);
  }
  mna::Workspace ws;
  mna::NewtonAttempt attempt =
      mna::attempt_solve_auto(im.nominal, nominal_opt, im.dc_state, im.structure, nullptr,
                              deadline_after(std::chrono::steady_clock::now(), options), ws);
  if (!attempt.converged || ws.sparse_disabled || ws.slu.symbolic() == nullptr) {
    return;  // a nominal circuit the sparse kernel distrusts stays naive
  }
  nominal_point_ = mna::make_operating_point(im.nominal, attempt.result);
  im.seed.x = std::move(attempt.x);
  im.seed.diode_v = std::move(attempt.diode_v);
  im.plan = std::move(ws.plan);
  im.symbolic = ws.slu.symbolic();
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
  const mna::SparsePlan& plan = impl_->plan;
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
  sparse::SparseMetrics& smetrics = sparse::SparseMetrics::get();
  Workspace::Impl& w = *ws.impl_;

  // First-factorisation mode: an unchanged pattern adopts the shared nominal
  // symbolic (numeric replay only); a deleted branch unknown reuses the
  // untouched symbolic prefix via partial_factor; anything else pays a full
  // factorisation (still one-off — later iterations refactor).
  enum class First { Refactor, Partial, Full };
  First first = First::Refactor;
  std::vector<std::int32_t> new_of_old;
  const mna::SparsePlan* plan = &im.plan;
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
    w.own_plan.build(faulted, im.opt, im.dc_state, *st);
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
      first = First::Partial;
    } else if (plan->fingerprint != im.plan.fingerprint) {
      first = First::Full;
    }
  }
  if (first == First::Refactor) {
    // The workspace usually still holds the shared symbolic from its last
    // fault; only a repivot or a stream-changing fault replaced it.
    if (w.slu.symbolic() != im.symbolic) w.slu.adopt(im.symbolic);
    smetrics.symbolic_reuse.add();
  }

  // Everything but the diode stamps is fixed for the whole solve: stamp it
  // once per fault, then each Newton iteration copies it and adds the diodes.
  if (!plan->refill_fixed(faulted, im.opt, im.dc_state, *st, w.fixed_values, w.fixed_rhs,
                          w.diodes)) {
    outcome = FastPathOutcome::Structural;  // the stamp stream does not match the plan
    return std::nullopt;
  }

  const auto start = std::chrono::steady_clock::now();
  const std::size_t dim = st->dim;
  bool factored = false;
  auto solve_step = [&](const std::vector<double>& diode_v, std::vector<double>& x_out,
                        SolveFailure& failure, std::string& message) {
    w.values = w.fixed_values;
    w.rhs = w.fixed_rhs;
    if (!plan->refill_diodes(faulted, im.opt, im.dc_state, *st, diode_v, w.diodes,
                             w.values.data(), w.rhs.data())) {
      failure = SolveFailure::Singular;
      message = "sparse plan does not match the stamped circuit";
      return false;
    }
    std::string err;
    bool ok = false;
    if (factored || first == First::Refactor) {
      ok = w.slu.refactor(plan->pattern, w.values.data(), &err);
      if (!ok) {
        ok = w.slu.factor(plan->pattern, w.values.data(), &err);
        if (ok) smetrics.repivots.add();
      }
    } else if (first == First::Partial) {
      ok = w.slu.partial_factor(*im.symbolic, im.plan.pattern, new_of_old, plan->pattern,
                                w.values.data(), nullptr, &err);
      if (!ok) ok = w.slu.factor(plan->pattern, w.values.data(), &err);
    } else {
      ok = w.slu.factor(plan->pattern, w.values.data(), &err);
    }
    if (!ok) {
      failure = SolveFailure::Singular;
      message = std::move(err);
      return false;
    }
    if (!factored) {
      factored = true;
      if (static_cast<double>(w.slu.lu_nnz()) > fill_budget(dim, im.opt)) {
        smetrics.fallback_fill.add();
        failure = SolveFailure::Singular;
        message = "sparse factorisation fill exceeded the density gate";
        return false;
      }
    }
    // Solve into the Newton buffer so `w.rhs` still holds the final-iteration
    // RHS for the residual gate below.
    x_out = w.rhs;
    w.slu.solve_in_place(x_out.data());
    return true;
  };

  mna::NewtonAttempt attempt = mna::newton_attempt(faulted, im.opt, *st, &im.seed,
                                                   deadline_after(start, im.opt), solve_step);
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
