// Dense linear algebra kernel shared by every MNA solve path.
//
// One templated, blocked, partial-pivot LU factorisation over flat row-major
// storage replaces the two copy-pasted Gaussian eliminations the solver used
// to carry (real Newton path and complex AC path). The factorisation keeps
// its storage across calls, so a Newton loop / frequency sweep / fault
// campaign re-factors without reallocating, and a factored system can be
// re-solved against many right-hand sides.
//
// Numerical contract: the blocked elimination performs bit-identical
// arithmetic to the classic unblocked row-by-row elimination. The panel
// restricts immediate updates to its own columns; the deferred trailing
// update applies each row's multipliers in ascending pivot order, which is
// exactly the per-entry operation sequence of the unblocked loop. Pivot
// selection (first strictly-largest magnitude, diagonal wins ties), the
// magnitude-relative singularity floor, and the `multiplier == 0` skip
// (which avoids 0 * Inf = NaN on rows carrying infinities from pathological
// inputs) are all preserved, so refactoring the solver onto this kernel
// changed no output byte.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "decisive/base/error.hpp"

namespace decisive::sim::dense {

/// Absolute pivot floor: catches the exactly-zero pivot of an empty or
/// rank-deficient column even when the matrix magnitude is itself zero.
inline constexpr double kPivotFloor = 1e-30;

/// Relative pivot floor, shared by the dense and sparse kernels. The old
/// absolute 1e-30 floor misclassified well-scaled *tiny* systems (every
/// entry ~1e-32, condition number ~1) as structurally singular; scaling the
/// floor to the matrix's largest magnitude keeps the singularity test about
/// *structure* (floating node, short loop, contradictory sources) instead of
/// units. 1e-20 leaves the 1e-12 gmin pivots of a default-options MNA system
/// (matrix max ~1e3 from the milliohm closed-switch stamps) eight orders of
/// magnitude above the floor.
inline constexpr double kPivotRelativeFloor = 1e-20;

/// The singularity floor for a matrix whose largest entry magnitude is
/// `matrix_max`: relative when the matrix has any magnitude, the absolute
/// floor otherwise (so the all-zero matrix still reads as singular).
[[nodiscard]] inline double singular_floor(double matrix_max) noexcept {
  return matrix_max > 0.0 ? kPivotRelativeFloor * matrix_max : kPivotFloor;
}

/// Columns factored per panel before the deferred trailing update. Chosen so
/// a panel of typical MNA rows stays cache-resident; correctness does not
/// depend on the value.
inline constexpr std::size_t kPanelWidth = 32;

/// An LU factorisation (PA = LU, partial pivoting) with owned, reusable
/// storage. Assemble the matrix directly into `reset(n)`'s buffer, call
/// `factor()`, then `solve_in_place()` any number of right-hand sides.
template <typename T>
class LuFactorization {
 public:
  /// Prepares (and zero-fills) the internal n x n row-major buffer for
  /// assembly. Capacity is kept across calls, so a loop that re-factors the
  /// same-sized system allocates only once.
  std::vector<T>& reset(std::size_t n) {
    n_ = n;
    factored_ = false;
    lu_.assign(n * n, T{});
    return lu_;
  }

  [[nodiscard]] std::size_t dim() const noexcept { return n_; }
  [[nodiscard]] bool factored() const noexcept { return factored_; }

  /// The matrix buffer (row-major, n*n). After factor(): L below the
  /// diagonal (unit diagonal implicit), U on and above it.
  [[nodiscard]] const std::vector<T>& matrix() const noexcept { return lu_; }
  [[nodiscard]] std::vector<T>& matrix() noexcept { return lu_; }

  /// Factors the assembled buffer in place. Throws SimulationError with
  /// `singular_message` when a pivot column is numerically empty.
  void factor(const char* singular_message) {
    const std::size_t n = n_;
    T* a = lu_.data();
    pivots_.resize(n);
    // One O(n^2) magnitude scan (negligible against the O(n^3) elimination)
    // anchors the singularity floor to the matrix's own scale.
    double matrix_max = 0.0;
    for (const T& value : lu_) matrix_max = std::max(matrix_max, std::abs(value));
    const double floor = singular_floor(matrix_max);
    for (std::size_t k0 = 0; k0 < n; k0 += kPanelWidth) {
      const std::size_t k1 = std::min(k0 + kPanelWidth, n);
      // Panel factorisation: pivot, scale, and update panel columns only.
      // Column k has already received every pre-panel pivot's contribution
      // (deferred updates of earlier panels) and every in-panel pivot's
      // contribution (the loop below), so pivot selection sees the same
      // values as the unblocked elimination.
      for (std::size_t k = k0; k < k1; ++k) {
        std::size_t pivot = k;
        double best = std::abs(a[k * n + k]);
        for (std::size_t row = k + 1; row < n; ++row) {
          const double mag = std::abs(a[row * n + k]);
          if (mag > best) {
            best = mag;
            pivot = row;
          }
        }
        if (best < floor) throw SimulationError(singular_message);
        pivots_[k] = pivot;
        if (pivot != k) {
          std::swap_ranges(a + k * n, a + (k + 1) * n, a + pivot * n);
        }
        const T inv = T(1.0) / a[k * n + k];
        const T* src = a + k * n;
        for (std::size_t row = k + 1; row < n; ++row) {
          T* dst = a + row * n;
          const T multiplier = dst[k] * inv;
          dst[k] = multiplier;
          if (multiplier == T{}) continue;
          for (std::size_t j = k + 1; j < k1; ++j) dst[j] -= multiplier * src[j];
        }
      }
      // Deferred trailing update: each row absorbs the whole panel's
      // rank-(k1-k0) contribution in one cache-resident pass, applying its
      // stored multipliers in ascending pivot order — the same per-entry
      // arithmetic sequence as the unblocked elimination.
      for (std::size_t row = k0 + 1; row < n; ++row) {
        T* dst = a + row * n;
        const std::size_t jmax = std::min(row, k1);
        for (std::size_t j = k0; j < jmax; ++j) {
          const T multiplier = dst[j];
          if (multiplier == T{}) continue;
          const T* src = a + j * n;
          for (std::size_t c = k1; c < n; ++c) dst[c] -= multiplier * src[c];
        }
      }
    }
    factored_ = true;
  }

  /// Solves (LU) x = P b in place; `b` must hold dim() entries. Applying the
  /// row interchanges up front and then substituting is operation-for-
  /// operation identical to interleaving swaps with the elimination.
  void solve_in_place(T* b) const {
    const std::size_t n = n_;
    const T* a = lu_.data();
    for (std::size_t k = 0; k < n; ++k) {
      if (pivots_[k] != k) std::swap(b[k], b[pivots_[k]]);
    }
    for (std::size_t k = 0; k < n; ++k) {
      const T bk = b[k];
      for (std::size_t row = k + 1; row < n; ++row) {
        const T multiplier = a[row * n + k];
        if (multiplier == T{}) continue;
        b[row] -= multiplier * bk;
      }
    }
    for (std::size_t i = n; i-- > 0;) {
      T sum = b[i];
      for (std::size_t k = i + 1; k < n; ++k) sum -= a[i * n + k] * b[k];
      b[i] = sum / a[i * n + i];
    }
  }

  [[nodiscard]] std::vector<T> solve(std::vector<T> b) const {
    solve_in_place(b.data());
    return b;
  }

 private:
  std::vector<T> lu_;
  std::vector<std::size_t> pivots_;
  std::size_t n_ = 0;
  bool factored_ = false;
};

/// Validates a nested-vector system: square matrix matching b, every row the
/// full width. Malformed systems used to read out of bounds in the complex
/// kernel; now both element types throw SimulationError up front. Only the
/// one-shot public entry points pay this per call — the repeated-solve paths
/// (Newton, transient, AC sweep, campaign) fix their shape once per circuit
/// structure (mna::Structure, the campaign's sparse plan) and reuse flat
/// workspaces.
template <typename T>
void validate_system(const std::vector<std::vector<T>>& a, const std::vector<T>& b) {
  const std::size_t n = b.size();
  if (a.size() != n) throw SimulationError("linear system dimension mismatch");
  for (std::size_t row = 0; row < n; ++row) {
    if (a[row].size() != n) {
      throw SimulationError("linear system row " + std::to_string(row) + " has " +
                            std::to_string(a[row].size()) + " columns, expected " +
                            std::to_string(n));
    }
  }
}

/// Convenience one-shot solve over the nested-vector representation used by
/// the public solve_linear / solve_linear_complex entry points.
template <typename T>
std::vector<T> solve_dense(const std::vector<std::vector<T>>& a, std::vector<T> b,
                           const char* singular_message) {
  validate_system(a, b);
  const std::size_t n = b.size();
  LuFactorization<T> lu;
  std::vector<T>& flat = lu.reset(n);
  for (std::size_t row = 0; row < n; ++row) {
    std::copy(a[row].begin(), a[row].end(), flat.begin() + static_cast<std::ptrdiff_t>(row * n));
  }
  lu.factor(singular_message);
  lu.solve_in_place(b.data());
  return b;
}

}  // namespace decisive::sim::dense
