// Internal MNA machinery shared by the single-solve path (solver.cpp) and
// the factor-once campaign path (campaign_solver.cpp): system
// structure analysis, stamp assembly, diode linearisation, and the bounded
// Newton loop with a pluggable linear-solve step.
//
// Not installed; everything here is an implementation detail of the sim
// library. The assembly and iteration logic is a verbatim extraction of the
// original attempt_solve — stamp order, convergence tests, and failure
// classification are unchanged, so the naive path's outputs are
// byte-identical to the pre-refactor solver.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "decisive/base/error.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/sim/circuit.hpp"
#include "decisive/sim/dense.hpp"
#include "decisive/sim/solver.hpp"
#include "decisive/sim/sparse.hpp"

namespace decisive::sim::mna {

/// Registry handles cached once per process: a solve costs a handful of
/// relaxed atomic increments, never a registry lookup.
struct SolverMetrics {
  obs::Counter& solves;
  obs::Counter& converged;
  obs::Counter& iterations;
  obs::Counter& gmin_rungs;
  obs::Counter& source_rungs;
  obs::Counter& nonfinite_guard;
  obs::Counter& singular;
  obs::Counter& budget_exhausted;
  obs::Histogram& solve_seconds;

  static SolverMetrics& get() {
    auto& registry = obs::Registry::global();
    static SolverMetrics metrics{
        registry.counter("decisive_solver_solves_total"),
        registry.counter("decisive_solver_converged_total"),
        registry.counter("decisive_solver_iterations_total"),
        registry.counter("decisive_solver_ladder_gmin_total"),
        registry.counter("decisive_solver_ladder_source_total"),
        registry.counter("decisive_solver_nonfinite_guard_total"),
        registry.counter("decisive_solver_singular_total"),
        registry.counter("decisive_solver_budget_exhausted_total"),
        registry.histogram("decisive_solver_solve_seconds")};
    return metrics;
  }
};

/// Per-run element companion state: which storage elements have companion
/// sources (transient) and which diode linearisation voltages to use.
struct CompanionState {
  bool transient = false;
  double dt = 0.0;
  // Indexed by element position in circuit.elements().
  std::vector<double> cap_voltage;       // previous-step capacitor voltage
  std::vector<double> inductor_current;  // previous-step inductor current
};

/// Assembles and solves one Newton-converged system.
/// Returns node voltages (index 0 = ground = 0.0) and branch currents keyed
/// by element index for elements with a branch unknown.
struct SolveResult {
  std::vector<double> node_voltage;
  std::vector<double> branch_current;  // per element index; NaN when no branch
};

/// Warm-start state handed from one recovery-ladder attempt to the next (and
/// from the nominal solve to every fault variant on the campaign path).
struct NewtonSeed {
  std::vector<double> x;        ///< previous raw solution vector
  std::vector<double> diode_v;  ///< previous diode junction estimates
};

using Deadline = std::optional<std::chrono::steady_clock::time_point>;

/// One bounded, non-throwing Newton run. `result` is only meaningful when
/// `converged`; `x`/`diode_v` always carry the final iterate so a later
/// ladder rung can continue from whatever progress this attempt made.
struct NewtonAttempt {
  bool converged = false;
  SolveFailure failure = SolveFailure::None;
  std::string message;
  int iterations = 0;
  double residual = 0.0;
  SolveResult result;
  std::vector<double> x;
  std::vector<double> diode_v;
};

/// The unknown-vector layout of one MNA system: node voltages (ground
/// eliminated) followed by branch currents. Fixed for a given netlist
/// topology, so a campaign computes it once and shares it across variants.
struct Structure {
  std::vector<int> branch_index;  ///< per element; -1 = no branch unknown
  int n_branches = 0;
  int n_nodes = 0;
  std::size_t dim = 0;
};

inline Structure analyze_structure(const Circuit& circuit, bool transient) {
  const auto& elements = circuit.elements();
  Structure st;
  st.n_nodes = circuit.node_count();
  st.branch_index.assign(elements.size(), -1);
  // Branch unknowns: voltage sources, current sensors; inductors only in DC
  // (in transient they use a Norton companion instead).
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const ElementKind kind = elements[i].kind;
    if (kind == ElementKind::VSource || kind == ElementKind::CurrentSensor ||
        (kind == ElementKind::Inductor && !transient)) {
      st.branch_index[i] = st.n_branches++;
    }
  }
  st.dim = static_cast<std::size_t>(st.n_nodes - 1 + st.n_branches);
  return st;
}

/// Companion linearisation of one diode around a junction-voltage estimate.
struct DiodeLinearisation {
  double geq = 0.0;
  double ieq = 0.0;
};

inline DiodeLinearisation linearise_diode(double diode_v_estimate, const SolveOptions& opt) {
  const double vd = std::clamp(diode_v_estimate, -5.0, 0.9);
  const double ex = std::exp(vd / opt.diode_vt);
  const double id = opt.diode_is * (ex - 1.0);
  const double geq = std::max(opt.diode_is / opt.diode_vt * ex, opt.gmin);
  return DiodeLinearisation{geq, id - geq * vd};
}

/// gmin from every non-ground node keeps floating nodes solvable (the
/// standard SPICE trick; an "open" fault would otherwise be singular). The
/// first stamps of every assembly.
template <typename AddFn>
inline void stamp_gmin(const SolveOptions& opt, const Structure& st, AddFn&& add) {
  for (int node = 1; node < st.n_nodes; ++node) {
    const auto row = static_cast<std::size_t>(node - 1);
    add(row, row, opt.gmin);
  }
}

/// Stamps element `i` of `circuit` into `rhs` and the matrix sink `add`, in
/// the exact order of the original solver. Only a diode's stamps depend on
/// `diode_v`; every other element's depend on the circuit and `state` alone.
template <typename AddFn>
inline void stamp_element(const Circuit& circuit, std::size_t i, const SolveOptions& opt,
                          const CompanionState& state, const Structure& st,
                          const std::vector<double>& diode_v, AddFn&& add, double* rhs) {
  const Element& e = circuit.elements()[i];
  const std::size_t dim = st.dim;
  const int n_branches = st.n_branches;

  auto vrow = [](int node) { return static_cast<std::size_t>(node - 1); };

  auto stamp_conductance = [&](int na, int nb, double g) {
    if (na != 0) add(vrow(na), vrow(na), g);
    if (nb != 0) add(vrow(nb), vrow(nb), g);
    if (na != 0 && nb != 0) {
      add(vrow(na), vrow(nb), -g);
      add(vrow(nb), vrow(na), -g);
    }
  };
  // Current `j` flowing from node na to node nb through the element.
  auto stamp_current = [&](int na, int nb, double j) {
    if (na != 0) rhs[vrow(na)] -= j;
    if (nb != 0) rhs[vrow(nb)] += j;
  };
  auto stamp_branch = [&](int na, int nb, int branch) {
    const std::size_t k = static_cast<std::size_t>(static_cast<int>(dim) - n_branches + branch);
    if (na != 0) {
      add(vrow(na), k, 1.0);
      add(k, vrow(na), 1.0);
    }
    if (nb != 0) {
      add(vrow(nb), k, -1.0);
      add(k, vrow(nb), -1.0);
    }
  };
  auto branch_rhs = [&](int branch) -> double& {
    return rhs[static_cast<std::size_t>(static_cast<int>(dim) - n_branches + branch)];
  };

  switch (e.kind) {
    case ElementKind::Resistor:
      stamp_conductance(e.a, e.b, 1.0 / e.value);
      break;
    case ElementKind::Mcu:
      stamp_conductance(e.a, e.b, 1.0 / e.value);
      break;
    case ElementKind::Switch:
      stamp_conductance(e.a, e.b, 1.0 / (e.closed ? opt.closed_resistance : opt.open_resistance));
      break;
    case ElementKind::Capacitor:
      if (state.transient) {
        const double g = e.value / state.dt;
        stamp_conductance(e.a, e.b, g);
        // Norton companion: history current g * v_prev from b to a.
        stamp_current(e.a, e.b, -g * state.cap_voltage[i]);
      }
      // DC: open circuit, no stamp.
      break;
    case ElementKind::Inductor:
      if (state.transient) {
        const double g = state.dt / e.value;
        stamp_conductance(e.a, e.b, g);
        stamp_current(e.a, e.b, state.inductor_current[i]);
      } else {
        // DC short: a 0 V source with a branch-current unknown.
        stamp_branch(e.a, e.b, st.branch_index[i]);
        branch_rhs(st.branch_index[i]) = 0.0;
      }
      break;
    case ElementKind::Diode: {
      // Linearise around the current junction-voltage estimate.
      const DiodeLinearisation lin = linearise_diode(diode_v[i], opt);
      stamp_conductance(e.a, e.b, lin.geq);
      stamp_current(e.a, e.b, lin.ieq);
      break;
    }
    case ElementKind::VSource:
    case ElementKind::CurrentSensor:
      stamp_branch(e.a, e.b, st.branch_index[i]);
      branch_rhs(st.branch_index[i]) = e.kind == ElementKind::VSource ? e.value : 0.0;
      break;
    case ElementKind::ISource:
      stamp_current(e.a, e.b, e.value);
      break;
    case ElementKind::VoltageSensor:
      break;  // ideal voltmeter: no stamp
  }
}

/// Stamps the MNA system for the given diode linearisation point into `rhs`
/// (always) and an arbitrary matrix sink: `add(row, col, value)` is invoked
/// for every matrix stamp in the exact order of the original solver. The
/// dense path adds into flat row-major storage; the sparse path records
/// coordinates (pattern build) or replays them through a frozen slot
/// sequence (numeric refill) — one stamp pass, three consumers, and because
/// the element loop is shared the add sequence is identical across them.
/// `flatten` (here and on the split refills) inlines the per-element stamp
/// calls into the loop; left to itself the compiler keeps them out of line,
/// a call per element on the hottest path of a campaign.
template <typename AddFn>
[[gnu::flatten]] inline void assemble_with(const Circuit& circuit, const SolveOptions& opt,
                          const CompanionState& state, const Structure& st,
                          const std::vector<double>& diode_v, AddFn&& add, double* rhs) {
  stamp_gmin(opt, st, add);
  for (std::size_t i = 0; i < circuit.elements().size(); ++i) {
    stamp_element(circuit, i, opt, state, st, diode_v, add, rhs);
  }
}

/// The classic entry point over flat row-major `dim x dim` storage. Both
/// buffers must be pre-zeroed. The dense add is `+=` of the signed stamp, which is the same
/// IEEE operation the old in-lambda `-=` performed, so no output byte moved.
inline void assemble(const Circuit& circuit, const SolveOptions& opt,
                     const CompanionState& state, const Structure& st,
                     const std::vector<double>& diode_v, double* a, double* rhs) {
  const std::size_t dim = st.dim;
  assemble_with(circuit, opt, state, st, diode_v,
                [a, dim](std::size_t r, std::size_t c, double v) { a[r * dim + c] += v; }, rhs);
}

inline SolveResult extract_result(const Circuit& circuit, const Structure& st,
                                  const std::vector<double>& x) {
  const auto& elements = circuit.elements();
  SolveResult result;
  result.node_voltage.assign(static_cast<std::size_t>(st.n_nodes), 0.0);
  for (int node = 1; node < st.n_nodes; ++node) {
    result.node_voltage[static_cast<std::size_t>(node)] = x[static_cast<std::size_t>(node - 1)];
  }
  result.branch_current.assign(elements.size(), std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (st.branch_index[i] >= 0) {
      result.branch_current[i] =
          x[static_cast<std::size_t>(st.n_nodes - 1 + st.branch_index[i])];
    }
  }
  return result;
}

/// One bounded, non-throwing Newton run over a pluggable linear-solve step.
///
/// `solve_step(diode_v, x_out, failure, message)` solves the MNA system
/// linearised at `diode_v` into `x_out` (sized dim) and returns true, or
/// returns false with `failure`/`message` set (singular system, fill gate
/// tripped, ...). Everything else — budgets, the non-finite guard, diode
/// voltage limiting, and the convergence test — is shared verbatim between
/// the dense, sparse and campaign paths.
template <typename SolveStep>
NewtonAttempt newton_attempt(const Circuit& circuit, const SolveOptions& opt,
                             const Structure& st, const NewtonSeed* seed,
                             const Deadline& deadline, SolveStep&& solve_step) {
  const auto& elements = circuit.elements();
  const std::size_t dim = st.dim;

  NewtonAttempt attempt;
  if (dim == 0) {
    attempt.converged = true;
    attempt.result = SolveResult{
        std::vector<double>(static_cast<std::size_t>(st.n_nodes), 0.0),
        std::vector<double>(elements.size(), std::numeric_limits<double>::quiet_NaN())};
    return attempt;
  }

  // Diode junction voltage estimates for Newton iteration; warm-started from
  // the previous ladder attempt (or the nominal solve) when available.
  std::vector<double> diode_v(elements.size(), 0.6);
  std::vector<double> x(dim, 0.0);
  if (seed != nullptr) {
    if (seed->diode_v.size() == diode_v.size()) diode_v = seed->diode_v;
    if (seed->x.size() == x.size()) x = seed->x;
  }

  auto give_up = [&](SolveFailure failure, std::string message) {
    attempt.converged = false;
    attempt.failure = failure;
    attempt.message = std::move(message);
    attempt.x = std::move(x);
    attempt.diode_v = std::move(diode_v);
    return std::move(attempt);
  };

  std::vector<double> x_new(dim, 0.0);
  bool converged = false;
  for (int iteration = 0; !converged; ++iteration) {
    if (iteration >= opt.max_newton_iterations) {
      return give_up(SolveFailure::IterationBudget, "newton iteration did not converge");
    }
    if (deadline.has_value() && std::chrono::steady_clock::now() >= *deadline) {
      return give_up(SolveFailure::WallClockBudget, "solve wall-clock budget exhausted");
    }
    attempt.iterations = iteration + 1;

    SolveFailure failure = SolveFailure::Singular;
    std::string message;
    if (!solve_step(diode_v, x_new, failure, message)) {
      return give_up(failure, std::move(message));
    }

    // Non-finite guard: a NaN/Inf iterate (NaN source value, zero-resistance
    // loop, numeric blow-up) would otherwise poison every later iteration and
    // masquerade as "singular" once it reaches the diode stamps.
    for (const double value : x_new) {
      if (!std::isfinite(value)) {
        SolverMetrics::get().nonfinite_guard.add();
        return give_up(SolveFailure::NonFinite,
                       "newton iterate is not finite (NaN/Inf in circuit values?)");
      }
    }

    // Newton update for diode junction voltages, with voltage limiting for
    // robust convergence.
    bool has_diode = false;
    double max_diode_change = 0.0;
    auto node_v = [&](int node) {
      return node == 0 ? 0.0 : x_new[static_cast<std::size_t>(node - 1)];
    };
    for (std::size_t i = 0; i < elements.size(); ++i) {
      if (elements[i].kind != ElementKind::Diode) continue;
      has_diode = true;
      const double target = node_v(elements[i].a) - node_v(elements[i].b);
      const double previous = diode_v[i];
      const double step = std::clamp(target - previous, -0.1, 0.1);
      diode_v[i] = previous + step;
      max_diode_change = std::max(max_diode_change, std::abs(target - previous));
    }

    double max_change = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      max_change = std::max(max_change, std::abs(x_new[i] - x[i]));
    }
    std::swap(x, x_new);
    attempt.residual = has_diode ? std::max(max_change, max_diode_change) : max_change;

    converged = !has_diode || (max_diode_change < opt.newton_tolerance &&
                               max_change < std::max(opt.newton_tolerance, 1e-9));
  }

  attempt.result = extract_result(circuit, st, x);
  attempt.converged = true;
  attempt.x = std::move(x);
  attempt.diode_v = std::move(diode_v);
  return attempt;
}

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
/// the stamp pass plus the slot sequence that replays every later assembly
/// as straight indexed adds. Building it runs the stamp pass once with a
/// coordinate-recording sink; this is also where the per-structure shape
/// validation happens exactly once — refills never re-derive the pattern.
struct SparsePlan {
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;   ///< CSC slot of each recorded stamp, in order
  std::vector<std::size_t> element_begin;  ///< stream position of each element's
                                           ///< first stamp; back() = stream length
  std::vector<double> values;        ///< CSC numeric array, refilled per assembly
  std::uint64_t fingerprint = 0;     ///< pattern.fingerprint(), computed once
  std::size_t dim = 0;
  bool transient = false;
  bool ready = false;

  void build(const Circuit& circuit, const SolveOptions& opt, const CompanionState& state,
             const Structure& st) {
    sparse::SparseMetrics::get().plan_builds.add();
    sparse::PatternBuilder builder;
    builder.begin(st.dim);
    std::vector<double> rhs_sink(st.dim, 0.0);
    const std::size_t count = circuit.elements().size();
    const std::vector<double> diode_guess(count, 0.6);
    auto record = [&](std::size_t r, std::size_t c, double) { builder.add(r, c); };
    stamp_gmin(opt, st, record);
    element_begin.resize(count + 1);
    for (std::size_t i = 0; i < count; ++i) {
      element_begin[i] = builder.recorded();
      stamp_element(circuit, i, opt, state, st, diode_guess, record, rhs_sink.data());
    }
    element_begin[count] = builder.recorded();
    builder.freeze(pattern, slots);
    fingerprint = pattern.fingerprint();
    values.assign(pattern.nnz(), 0.0);
    dim = st.dim;
    transient = state.transient;
    ready = true;
  }

  /// Numeric refill: zeroes `values`, replays the stamp pass through the
  /// frozen slot sequence and writes `rhs` (pre-zeroed, dim entries) in the
  /// same pass. Returns false if the stamp stream no longer matches the plan
  /// (a structurally different circuit slipped in) — the caller must fall
  /// back to dense rather than trust a half-filled matrix.
  [[nodiscard]] bool refill(const Circuit& circuit, const SolveOptions& opt,
                            const CompanionState& state, const Structure& st,
                            const std::vector<double>& diode_v, double* rhs) {
    std::fill(values.begin(), values.end(), 0.0);
    SlotCursor cursor{slots.data(), values.data(), 0, slots.size()};
    assemble_with(circuit, opt, state, st, diode_v, cursor, rhs);
    return cursor.stopped_at(slots.size());
  }

  /// The part of a refill that holds for a whole Newton solve of `circuit`:
  /// gmin and every element but the diodes, whose stamps alone move with the
  /// linearisation point. Writes the partial sums into `fixed_values` and
  /// `fixed_rhs` (both resized and zeroed first) and lists the diodes for
  /// refill_diodes. Const, so one plan serves every campaign worker. Returns
  /// false when `circuit` does not match the plan's stamp stream.
  [[nodiscard, gnu::flatten]] bool refill_fixed(const Circuit& circuit, const SolveOptions& opt,
                                  const CompanionState& state, const Structure& st,
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
    stamp_gmin(opt, st, cursor);
    if (!cursor.stopped_at(element_begin[0])) return false;
    for (std::size_t i = 0; i < elements.size(); ++i) {
      if (elements[i].kind == ElementKind::Diode) {
        diodes.push_back(i);
        continue;
      }
      cursor.t = element_begin[i];
      cursor.end = element_begin[i + 1];
      stamp_element(circuit, i, opt, state, st, no_diode_v, cursor, fixed_rhs.data());
      if (!cursor.stopped_at(element_begin[i + 1])) return false;
    }
    return true;
  }

  /// Completes one Newton iteration's refill: `values` and `rhs` hold a copy
  /// of the fixed part, and every listed diode's stamps, linearised at
  /// `diode_v`, are added on top. Returns false on a stamp-stream mismatch.
  [[nodiscard, gnu::flatten]] bool refill_diodes(const Circuit& circuit, const SolveOptions& opt,
                                   const CompanionState& state, const Structure& st,
                                   const std::vector<double>& diode_v,
                                   const std::vector<std::size_t>& diodes, double* values,
                                   double* rhs) const {
    SlotCursor cursor{slots.data(), values, 0, 0};
    for (const std::size_t i : diodes) {
      cursor.t = element_begin[i];
      cursor.end = element_begin[i + 1];
      stamp_element(circuit, i, opt, state, st, diode_v, cursor, rhs);
      if (!cursor.stopped_at(element_begin[i + 1])) return false;
    }
    return true;
  }
};

/// Reusable buffers of one solve path. Hoisted out of the Newton loop so an
/// attempt allocates its matrix once, and shared across ladder rungs /
/// transient steps / campaign variants by the callers. The sparse plan and
/// factorisation ride along so a repeated-solve caller pays symbolic
/// analysis once per structure; `sparse_disabled` is the sticky half of the
/// fallback ladder — once any sparse attempt on this workspace misbehaves,
/// every later attempt goes straight to the dense kernel.
struct Workspace {
  dense::LuFactorization<double> lu;
  std::vector<double> rhs;
  SparsePlan plan;
  sparse::SparseLu<double> slu;
  bool sparse_disabled = false;
};

/// The classic path: assemble the full matrix and factor it every iteration,
/// with `ws` providing the (reused) storage.
inline NewtonAttempt attempt_solve_dense(const Circuit& circuit, const SolveOptions& opt,
                                         const CompanionState& state, const Structure& st,
                                         const NewtonSeed* seed, const Deadline& deadline,
                                         Workspace& ws) {
  auto solve_step = [&](const std::vector<double>& diode_v, std::vector<double>& x_out,
                        SolveFailure& failure, std::string& message) {
    std::vector<double>& flat = ws.lu.reset(st.dim);
    ws.rhs.assign(st.dim, 0.0);
    assemble(circuit, opt, state, st, diode_v, flat.data(), ws.rhs.data());
    try {
      ws.lu.factor("singular system (floating node or short loop?)");
    } catch (const SimulationError& error) {
      SolverMetrics::get().singular.add();
      failure = SolveFailure::Singular;
      message = error.what();
      return false;
    }
    ws.lu.solve_in_place(ws.rhs.data());
    x_out = ws.rhs;
    return true;
  };
  return newton_attempt(circuit, opt, st, seed, deadline, solve_step);
}

/// The default path: sparse refactor-per-iteration for big systems, with a
/// fall-back-on-anything-suspicious ladder onto the dense kernel. A sparse
/// attempt that misbehaves in *any* way — singular factorisation, a
/// pivot-gate trip that a fresh factorisation cannot heal, fill blow-up, a
/// stamp-stream mismatch, or plain Newton non-convergence — is re-run in
/// full on the dense kernel (identical classification and messages to
/// attempt_solve_dense) and this workspace's sparse path is disabled for
/// good. The dense kernel therefore stays the behavioural oracle: enabling
/// sparse can only change which rounding a *converged* solution carries,
/// never whether or how an attempt fails.
inline NewtonAttempt attempt_solve_auto(const Circuit& circuit, const SolveOptions& opt,
                                        const CompanionState& state, const Structure& st,
                                        const NewtonSeed* seed, const Deadline& deadline,
                                        Workspace& ws) {
  if (!opt.sparse || ws.sparse_disabled) {
    return attempt_solve_dense(circuit, opt, state, st, seed, deadline, ws);
  }
  auto& metrics = sparse::SparseMetrics::get();
  if (st.dim < static_cast<std::size_t>(std::max(opt.sparse_min_dim, 1))) {
    metrics.fallback_small_dim.add();
    return attempt_solve_dense(circuit, opt, state, st, seed, deadline, ws);
  }
  // (Re)derive the assembly plan when the structure changed — e.g. one
  // workspace shared between a transient run's DC initial condition and its
  // stepping loop, whose systems differ in both dimension and stamps.
  if (!ws.plan.ready || ws.plan.dim != st.dim || ws.plan.transient != state.transient) {
    ws.plan.build(circuit, opt, state, st);
    ws.slu = sparse::SparseLu<double>{};  // symbolic was for another structure
  }

  obs::Counter* fallback_reason = &metrics.fallback_not_converged;
  auto solve_step = [&](const std::vector<double>& diode_v, std::vector<double>& x_out,
                        SolveFailure& failure, std::string& message) {
    ws.rhs.assign(st.dim, 0.0);
    if (!ws.plan.refill(circuit, opt, state, st, diode_v, ws.rhs.data())) {
      fallback_reason = &metrics.fallback_singular;
      failure = SolveFailure::Singular;
      message = "sparse plan does not match the stamped circuit";
      return false;
    }
    std::string err;
    bool ok = false;
    if (ws.slu.symbolic() != nullptr &&
        ws.slu.symbolic()->pattern_fingerprint == ws.plan.fingerprint) {
      ok = ws.slu.refactor(ws.plan.pattern, ws.plan.values.data(), &err);
      if (!ok) {
        // A frozen pivot went numerically stale; re-pivot from scratch
        // before conceding the step.
        ok = ws.slu.factor(ws.plan.pattern, ws.plan.values.data(), &err);
        if (ok) {
          metrics.repivots.add();
        } else {
          fallback_reason = &metrics.fallback_pivot;
        }
      }
    } else {
      ok = ws.slu.factor(ws.plan.pattern, ws.plan.values.data(), &err);
      if (!ok) fallback_reason = &metrics.fallback_singular;
    }
    if (!ok) {
      failure = SolveFailure::Singular;
      message = std::move(err);
      return false;
    }
    const double dim_sq = static_cast<double>(st.dim) * static_cast<double>(st.dim);
    if (static_cast<double>(ws.slu.lu_nnz()) > opt.sparse_max_fill * dim_sq) {
      fallback_reason = &metrics.fallback_fill;
      failure = SolveFailure::Singular;
      message = "sparse factorisation fill exceeded the density gate";
      return false;
    }
    ws.slu.solve_in_place(ws.rhs.data());
    x_out = ws.rhs;
    return true;
  };

  NewtonAttempt attempt = newton_attempt(circuit, opt, st, seed, deadline, solve_step);
  if (attempt.converged) return attempt;

  // Anything suspicious: count why, disable this workspace's sparse path,
  // and re-run the whole attempt on the dense oracle so the failure (or a
  // late dense-only convergence) classifies exactly as with sparse off.
  fallback_reason->add();
  ws.sparse_disabled = true;
  return attempt_solve_dense(circuit, opt, state, st, seed, deadline, ws);
}

OperatingPoint make_operating_point(const Circuit& circuit, const SolveResult& solved);

}  // namespace decisive::sim::mna
