// Sparse LU implementation: left-looking Gilbert-Peierls factorisation with
// threshold partial pivoting, the numeric-only replay over a frozen
// Symbolic, and the partial refactorisation that reuses a clean symbolic
// prefix across a structural edit.
//
// The algorithm is the classic one from Gilbert & Peierls ("Sparse partial
// pivoting in time proportional to arithmetic operations") as specialised by
// KLU for circuit matrices: for each column, a DFS over the already-factored
// L columns computes the fill pattern and a topological elimination order;
// the numeric sweep then runs exactly that order. Freezing the pattern and
// order afterwards is what makes refactor() a straight-line array replay —
// no graph traversal, no allocation, no pivot search.

#include "decisive/sim/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "decisive/sim/dense.hpp"

namespace decisive::sim::sparse {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffull;
    h *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t Pattern::fingerprint() const noexcept {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(n));
  for (const std::int32_t v : col_ptr) fnv_mix(h, static_cast<std::uint64_t>(v));
  for (const std::int32_t v : row_ind) fnv_mix(h, static_cast<std::uint64_t>(v));
  return h;
}

void PatternBuilder::freeze(Pattern& pattern, std::vector<std::int32_t>& slots) const {
  std::vector<std::pair<std::int32_t, std::int32_t>> sorted = coords_;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  pattern.n = n_;
  pattern.col_ptr.assign(n_ + 1, 0);
  pattern.row_ind.resize(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    pattern.row_ind[i] = sorted[i].second;
    ++pattern.col_ptr[static_cast<std::size_t>(sorted[i].first) + 1];
  }
  for (std::size_t c = 0; c < n_; ++c) pattern.col_ptr[c + 1] += pattern.col_ptr[c];

  // Slot of every recorded add: binary search within its (sorted) column.
  slots.resize(coords_.size());
  for (std::size_t t = 0; t < coords_.size(); ++t) {
    const auto [col, row] = coords_[t];
    const auto begin = pattern.row_ind.begin() + pattern.col_ptr[static_cast<std::size_t>(col)];
    const auto end = pattern.row_ind.begin() + pattern.col_ptr[static_cast<std::size_t>(col) + 1];
    const auto it = std::lower_bound(begin, end, row);
    slots[t] = static_cast<std::int32_t>(it - pattern.row_ind.begin());
  }
}

std::vector<std::int32_t> min_degree_order(const Pattern& a) {
  const std::size_t n = a.n;
  std::vector<std::int32_t> order;
  order.reserve(n);
  if (n == 0) return order;

  // Dense-ish patterns gain nothing from reordering (and the explicit-fill
  // elimination below would be quadratic on them); the caller's fill gate
  // sends such systems to the dense kernel anyway.
  if (static_cast<double>(a.nnz()) > kDensePatternRatio * static_cast<double>(n) *
                                         static_cast<double>(n)) {
    for (std::size_t c = 0; c < n; ++c) order.push_back(static_cast<std::int32_t>(c));
    return order;
  }

  // Symmetric adjacency of A + A^T without the diagonal. Lists stay sorted
  // and contain live vertices only (elimination rebuilds exactly the lists
  // that referenced the eliminated vertex).
  std::vector<std::vector<std::int32_t>> adj(n);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::int32_t p = a.col_ptr[c]; p < a.col_ptr[c + 1]; ++p) {
      const std::int32_t r = a.row_ind[static_cast<std::size_t>(p)];
      if (static_cast<std::size_t>(r) == c) continue;
      adj[c].push_back(r);
      adj[static_cast<std::size_t>(r)].push_back(static_cast<std::int32_t>(c));
    }
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  std::vector<char> alive(n, 1);
  std::vector<std::int32_t> clique;
  std::vector<std::int32_t> merged;
  for (std::size_t step = 0; step < n; ++step) {
    // Minimum current degree, ties to the lowest index (deterministic).
    std::int32_t best = -1;
    std::size_t best_degree = std::numeric_limits<std::size_t>::max();
    for (std::size_t v = 0; v < n; ++v) {
      if (alive[v] && adj[v].size() < best_degree) {
        best_degree = adj[v].size();
        best = static_cast<std::int32_t>(v);
      }
    }
    order.push_back(best);
    alive[static_cast<std::size_t>(best)] = 0;

    // Eliminating `best` turns its neighbourhood into a clique.
    clique = std::move(adj[static_cast<std::size_t>(best)]);
    adj[static_cast<std::size_t>(best)].clear();
    for (const std::int32_t u : clique) {
      auto& list = adj[static_cast<std::size_t>(u)];
      merged.clear();
      merged.reserve(list.size() + clique.size());
      auto ia = list.begin();
      auto ib = clique.begin();
      auto keep = [&](std::int32_t v) {
        if (v != best && v != u) merged.push_back(v);
      };
      while (ia != list.end() && ib != clique.end()) {
        if (*ia < *ib) {
          keep(*ia++);
        } else if (*ib < *ia) {
          keep(*ib++);
        } else {
          keep(*ia);
          ++ia;
          ++ib;
        }
      }
      while (ia != list.end()) keep(*ia++);
      while (ib != clique.end()) keep(*ib++);
      list = merged;
    }
  }
  return order;
}

template <typename T>
void SparseLu<T>::adopt(std::shared_ptr<const Symbolic> symbolic) {
  sym_ = std::move(symbolic);
  factored_ = false;
  fill_ratio_ = 0.0;
  if (sym_) {
    l_val_.resize(sym_->l_row.size());
    u_val_.resize(sym_->u_pos.size());
    u_diag_.assign(sym_->n, T{});
  }
}

template <typename T>
bool SparseLu<T>::gilbert_peierls(const Pattern& pattern, const T* values,
                                  const std::vector<std::int32_t>& col_order,
                                  std::size_t start_pos, Symbolic& sym,
                                  std::vector<std::int32_t>& pinv, double floor,
                                  std::string* error) {
  const std::size_t n = pattern.n;
  x_.assign(n, T{});
  if (mark_.size() != n || pass_ >= std::numeric_limits<std::int32_t>::max() - 1) {
    mark_.assign(n, 0);
    pass_ = 0;
  }
  stack_.resize(n);
  pstack_.resize(n);
  topo_.resize(n);
  rows_.resize(n);

  std::vector<std::int32_t> l_cols;  // candidate L rows of the current column
  for (std::size_t k = start_pos; k < n; ++k) {
    const std::int32_t c = col_order[k];
    sym.perm_col[k] = c;

    // Symbolic step: DFS over the factored L columns from every nonzero row
    // of A(:,c). Visited rows form the fill pattern; reverse finish order is
    // a topological elimination order.
    ++pass_;
    std::int32_t topo_n = 0;
    std::int32_t rows_n = 0;
    for (std::int32_t idx = pattern.col_ptr[static_cast<std::size_t>(c)];
         idx < pattern.col_ptr[static_cast<std::size_t>(c) + 1]; ++idx) {
      const std::int32_t root = pattern.row_ind[static_cast<std::size_t>(idx)];
      if (mark_[static_cast<std::size_t>(root)] == pass_) continue;
      std::int32_t sp = 0;
      stack_[0] = root;
      mark_[static_cast<std::size_t>(root)] = pass_;
      pstack_[0] = pinv[static_cast<std::size_t>(root)] >= 0
                       ? sym.l_ptr[static_cast<std::size_t>(pinv[static_cast<std::size_t>(root)])]
                       : 0;
      while (sp >= 0) {
        const std::int32_t row = stack_[static_cast<std::size_t>(sp)];
        const std::int32_t j = pinv[static_cast<std::size_t>(row)];
        bool descended = false;
        if (j >= 0) {
          std::int32_t& p = pstack_[static_cast<std::size_t>(sp)];
          const std::int32_t pend = sym.l_ptr[static_cast<std::size_t>(j) + 1];
          while (p < pend) {
            const std::int32_t child = sym.l_row[static_cast<std::size_t>(p++)];
            if (mark_[static_cast<std::size_t>(child)] != pass_) {
              mark_[static_cast<std::size_t>(child)] = pass_;
              ++sp;
              stack_[static_cast<std::size_t>(sp)] = child;
              pstack_[static_cast<std::size_t>(sp)] =
                  pinv[static_cast<std::size_t>(child)] >= 0
                      ? sym.l_ptr[static_cast<std::size_t>(
                            pinv[static_cast<std::size_t>(child)])]
                      : 0;
              descended = true;
              break;
            }
          }
        }
        if (descended) continue;
        rows_[static_cast<std::size_t>(rows_n++)] = row;
        if (j >= 0) topo_[static_cast<std::size_t>(topo_n++)] = j;
        --sp;
      }
    }

    // Numeric step: scatter A(:,c), then eliminate in topological order
    // (reverse finish order — parents before children).
    for (std::int32_t idx = pattern.col_ptr[static_cast<std::size_t>(c)];
         idx < pattern.col_ptr[static_cast<std::size_t>(c) + 1]; ++idx) {
      x_[static_cast<std::size_t>(pattern.row_ind[static_cast<std::size_t>(idx)])] =
          values[idx];
    }
    for (std::int32_t t = topo_n; t-- > 0;) {
      const std::int32_t j = topo_[static_cast<std::size_t>(t)];
      const T uj = x_[static_cast<std::size_t>(sym.pivot_row[static_cast<std::size_t>(j)])];
      sym.u_pos.push_back(j);
      u_val_.push_back(uj);
      if (uj != T{}) {
        for (std::int32_t q = sym.l_ptr[static_cast<std::size_t>(j)];
             q < sym.l_ptr[static_cast<std::size_t>(j) + 1]; ++q) {
          x_[static_cast<std::size_t>(sym.l_row[static_cast<std::size_t>(q)])] -=
              l_val_[static_cast<std::size_t>(q)] * uj;
        }
      }
    }
    sym.u_ptr.push_back(static_cast<std::int32_t>(sym.u_pos.size()));

    // Threshold partial pivoting over the not-yet-pivotal rows of the
    // pattern; the diagonal wins whenever it is within kDiagonalPreference
    // of the column max (pattern stability for later refactorisations).
    double max_mag = 0.0;
    std::int32_t pivot = -1;
    for (std::int32_t t = 0; t < rows_n; ++t) {
      const std::int32_t r = rows_[static_cast<std::size_t>(t)];
      if (pinv[static_cast<std::size_t>(r)] >= 0) continue;
      const double mag = std::abs(x_[static_cast<std::size_t>(r)]);
      if (mag > max_mag) {
        max_mag = mag;
        pivot = r;
      }
    }
    if (pivot < 0 || max_mag < floor) {
      if (error != nullptr) {
        *error = "sparse factorisation: numerically singular at column " +
                 std::to_string(c);
      }
      for (std::int32_t t = 0; t < rows_n; ++t) {
        x_[static_cast<std::size_t>(rows_[static_cast<std::size_t>(t)])] = T{};
      }
      return false;
    }
    if (static_cast<std::size_t>(c) < n && pinv[static_cast<std::size_t>(c)] < 0 &&
        std::abs(x_[static_cast<std::size_t>(c)]) >= kDiagonalPreference * max_mag) {
      pivot = c;
    }
    sym.pivot_row[k] = pivot;
    pinv[static_cast<std::size_t>(pivot)] = static_cast<std::int32_t>(k);
    const T diag = x_[static_cast<std::size_t>(pivot)];
    u_diag_[k] = diag;

    // L column: remaining non-pivotal pattern rows, stored sorted by row for
    // a canonical (comparison-friendly) layout. Order does not affect the
    // numerics — row updates are independent.
    l_cols.clear();
    for (std::int32_t t = 0; t < rows_n; ++t) {
      const std::int32_t r = rows_[static_cast<std::size_t>(t)];
      if (pinv[static_cast<std::size_t>(r)] < 0) l_cols.push_back(r);
    }
    std::sort(l_cols.begin(), l_cols.end());
    for (const std::int32_t r : l_cols) {
      sym.l_row.push_back(r);
      l_val_.push_back(x_[static_cast<std::size_t>(r)] / diag);
    }
    sym.l_ptr.push_back(static_cast<std::int32_t>(sym.l_row.size()));

    // Restore the all-zero scratch invariant for the next column.
    for (std::int32_t t = 0; t < rows_n; ++t) {
      x_[static_cast<std::size_t>(rows_[static_cast<std::size_t>(t)])] = T{};
    }
  }
  return true;
}

template <typename T>
bool SparseLu<T>::replay_prefix(const Symbolic& sym, const Pattern& pattern, const T* values,
                                std::size_t end_pos, double floor, std::string* error) {
  const std::size_t n = pattern.n;
  x_.assign(n, T{});
  for (std::size_t k = 0; k < end_pos; ++k) {
    const std::int32_t c = sym.perm_col[k];
    // Zero exactly this column's frozen pattern (U pivot rows, L rows, the
    // pivot row — disjoint sets), then scatter A(:,c). Residue from earlier
    // columns outside this pattern is harmless: every read is preceded by a
    // zero + scatter of the same rows.
    for (std::int32_t p = sym.u_ptr[k]; p < sym.u_ptr[k + 1]; ++p) {
      x_[static_cast<std::size_t>(
          sym.pivot_row[static_cast<std::size_t>(sym.u_pos[static_cast<std::size_t>(p)])])] =
          T{};
    }
    for (std::int32_t p = sym.l_ptr[k]; p < sym.l_ptr[k + 1]; ++p) {
      x_[static_cast<std::size_t>(sym.l_row[static_cast<std::size_t>(p)])] = T{};
    }
    x_[static_cast<std::size_t>(sym.pivot_row[k])] = T{};
    for (std::int32_t idx = pattern.col_ptr[static_cast<std::size_t>(c)];
         idx < pattern.col_ptr[static_cast<std::size_t>(c) + 1]; ++idx) {
      x_[static_cast<std::size_t>(pattern.row_ind[static_cast<std::size_t>(idx)])] =
          values[idx];
    }
    // Numeric elimination in the frozen (topological) order.
    for (std::int32_t p = sym.u_ptr[k]; p < sym.u_ptr[k + 1]; ++p) {
      const std::int32_t j = sym.u_pos[static_cast<std::size_t>(p)];
      const T uj = x_[static_cast<std::size_t>(sym.pivot_row[static_cast<std::size_t>(j)])];
      u_val_[static_cast<std::size_t>(p)] = uj;
      if (uj != T{}) {
        for (std::int32_t q = sym.l_ptr[static_cast<std::size_t>(j)];
             q < sym.l_ptr[static_cast<std::size_t>(j) + 1]; ++q) {
          x_[static_cast<std::size_t>(sym.l_row[static_cast<std::size_t>(q)])] -=
              l_val_[static_cast<std::size_t>(q)] * uj;
        }
      }
    }
    // Pivot stability gate: the frozen pivot must still dominate its column
    // well enough to trust — otherwise the caller re-pivots or goes dense.
    const T diag = x_[static_cast<std::size_t>(sym.pivot_row[k])];
    const double diag_mag = std::abs(diag);
    double col_max = diag_mag;
    for (std::int32_t q = sym.l_ptr[k]; q < sym.l_ptr[k + 1]; ++q) {
      col_max = std::max(
          col_max, std::abs(x_[static_cast<std::size_t>(sym.l_row[static_cast<std::size_t>(q)])]));
    }
    if (diag_mag < floor || diag_mag < kRefactorPivotGate * col_max) {
      if (error != nullptr) {
        *error = "sparse refactorisation: pivot gate tripped at column " + std::to_string(c);
      }
      return false;
    }
    u_diag_[k] = diag;
    for (std::int32_t q = sym.l_ptr[k]; q < sym.l_ptr[k + 1]; ++q) {
      l_val_[static_cast<std::size_t>(q)] =
          x_[static_cast<std::size_t>(sym.l_row[static_cast<std::size_t>(q)])] / diag;
    }
  }
  return true;
}

namespace {

template <typename T>
double values_max(const T* values, std::size_t nnz) {
  double max_mag = 0.0;
  for (std::size_t i = 0; i < nnz; ++i) max_mag = std::max(max_mag, std::abs(values[i]));
  return max_mag;
}

}  // namespace

template <typename T>
void SparseLu<T>::finish(const Pattern& pattern, bool new_structure) {
  factored_ = true;
  fill_ratio_ = pattern.nnz() > 0
                    ? static_cast<double>(sym_->lu_nnz()) / static_cast<double>(pattern.nnz())
                    : 1.0;
  // The structure gauges only move with a new symbolic analysis; a numeric
  // refactorisation over a frozen one would rewrite the same values (and a
  // wall-clock timestamp each) once per Newton iteration.
  if (!new_structure) return;
  SparseMetrics& metrics = SparseMetrics::get();
  metrics.nnz.set(static_cast<double>(pattern.nnz()));
  metrics.lu_nnz.set(static_cast<double>(sym_->lu_nnz()));
  metrics.fill_gauge.set(fill_ratio_);
}

template <typename T>
bool SparseLu<T>::factor(const Pattern& pattern, const T* values, std::string* error) {
  const std::size_t n = pattern.n;
  factored_ = false;
  auto sym = std::make_shared<Symbolic>();
  sym->n = n;
  sym->perm_col.assign(n, -1);
  sym->pivot_row.assign(n, -1);
  sym->l_ptr.assign(1, 0);
  sym->u_ptr.assign(1, 0);
  sym->l_row.reserve(pattern.nnz() * 2);
  sym->u_pos.reserve(pattern.nnz() * 2);
  l_val_.clear();
  u_val_.clear();
  l_val_.reserve(pattern.nnz() * 2);
  u_val_.reserve(pattern.nnz() * 2);
  u_diag_.assign(n, T{});

  const std::vector<std::int32_t> order = min_degree_order(pattern);
  std::vector<std::int32_t> pinv(n, -1);
  const double floor = dense::singular_floor(values_max(values, pattern.nnz()));
  if (!gilbert_peierls(pattern, values, order, 0, *sym, pinv, floor, error)) return false;
  sym->pattern_fingerprint = pattern.fingerprint();
  sym_ = std::move(sym);
  finish(pattern, true);
  SparseMetrics::get().factors.add();
  return true;
}

template <typename T>
bool SparseLu<T>::refactor(const Pattern& pattern, const T* values, std::string* error) {
  if (!sym_ || sym_->n != pattern.n) {
    if (error != nullptr) *error = "sparse refactorisation without a matching symbolic";
    return false;
  }
  factored_ = false;
  l_val_.resize(sym_->l_row.size());
  u_val_.resize(sym_->u_pos.size());
  u_diag_.resize(sym_->n);
  const double floor = dense::singular_floor(values_max(values, pattern.nnz()));
  if (!replay_prefix(*sym_, pattern, values, sym_->n, floor, error)) return false;
  finish(pattern, false);
  SparseMetrics::get().refactors.add();
  return true;
}

template <typename T>
bool SparseLu<T>::partial_factor(const Symbolic& base, const Pattern& base_pattern,
                                 const std::vector<std::int32_t>& new_of_old,
                                 const Pattern& pattern, const T* values,
                                 std::size_t* reused_columns, std::string* error) {
  const std::size_t n_old = base.n;
  const std::size_t n_new = pattern.n;
  factored_ = false;
  if (base_pattern.n != n_old || new_of_old.size() != n_old) {
    if (error != nullptr) *error = "partial refactorisation: base/remap size mismatch";
    return false;
  }

  // A column is dirty when it was deleted or its A pattern changed under the
  // remap (new entries, lost entries, or an entry on a deleted row).
  std::vector<char> dirty(n_old, 0);
  for (std::size_t c = 0; c < n_old; ++c) {
    const std::int32_t c_new = new_of_old[c];
    if (c_new < 0) {
      dirty[c] = 1;
      continue;
    }
    const std::int32_t old_begin = base_pattern.col_ptr[c];
    const std::int32_t old_end = base_pattern.col_ptr[c + 1];
    const std::int32_t new_begin = pattern.col_ptr[static_cast<std::size_t>(c_new)];
    const std::int32_t new_end = pattern.col_ptr[static_cast<std::size_t>(c_new) + 1];
    bool same = true;
    std::int32_t q = new_begin;
    // new_of_old is strictly increasing over surviving indices, so the
    // remapped old rows stay sorted and a single merged walk compares them.
    for (std::int32_t p = old_begin; p < old_end && same; ++p) {
      const std::int32_t r_new = new_of_old[static_cast<std::size_t>(
          base_pattern.row_ind[static_cast<std::size_t>(p)])];
      if (r_new < 0 || q >= new_end || pattern.row_ind[static_cast<std::size_t>(q)] != r_new) {
        same = false;
      }
      ++q;
    }
    if (q != new_end) same = false;
    dirty[c] = same ? 0 : 1;
  }

  // Longest clean prefix of the base elimination order: every position whose
  // column is clean, whose pivot row survives, and whose L rows all survive.
  // (U entries reference earlier positions, clean by induction.)
  std::size_t p = 0;
  for (; p < n_old; ++p) {
    const std::int32_t c = base.perm_col[p];
    if (dirty[static_cast<std::size_t>(c)]) break;
    if (new_of_old[static_cast<std::size_t>(base.pivot_row[p])] < 0) break;
    bool rows_survive = true;
    for (std::int32_t q = base.l_ptr[p]; q < base.l_ptr[p + 1] && rows_survive; ++q) {
      if (new_of_old[static_cast<std::size_t>(base.l_row[static_cast<std::size_t>(q)])] < 0) {
        rows_survive = false;
      }
    }
    if (!rows_survive) break;
  }

  // Materialise the remapped prefix of the symbolic.
  auto sym = std::make_shared<Symbolic>();
  sym->n = n_new;
  sym->perm_col.assign(n_new, -1);
  sym->pivot_row.assign(n_new, -1);
  std::vector<std::int32_t> pinv(n_new, -1);
  for (std::size_t k = 0; k < p; ++k) {
    sym->perm_col[k] = new_of_old[static_cast<std::size_t>(base.perm_col[k])];
    sym->pivot_row[k] = new_of_old[static_cast<std::size_t>(base.pivot_row[k])];
    pinv[static_cast<std::size_t>(sym->pivot_row[k])] = static_cast<std::int32_t>(k);
  }
  sym->l_ptr.assign(base.l_ptr.begin(), base.l_ptr.begin() + static_cast<std::ptrdiff_t>(p + 1));
  sym->u_ptr.assign(base.u_ptr.begin(), base.u_ptr.begin() + static_cast<std::ptrdiff_t>(p + 1));
  const std::size_t l_prefix = static_cast<std::size_t>(sym->l_ptr[p]);
  const std::size_t u_prefix = static_cast<std::size_t>(sym->u_ptr[p]);
  sym->l_row.resize(l_prefix);
  for (std::size_t q = 0; q < l_prefix; ++q) {
    sym->l_row[q] = new_of_old[static_cast<std::size_t>(base.l_row[q])];
  }
  sym->u_pos.assign(base.u_pos.begin(), base.u_pos.begin() + static_cast<std::ptrdiff_t>(u_prefix));
  l_val_.assign(l_prefix, T{});
  u_val_.assign(u_prefix, T{});
  u_diag_.assign(n_new, T{});

  const double floor = dense::singular_floor(values_max(values, pattern.nnz()));
  if (!replay_prefix(*sym, pattern, values, p, floor, error)) return false;

  // Suffix column order: surviving base-order columns first, then columns
  // with no old preimage (none for today's dimension-shrinking structural
  // faults, but harmless to support) in ascending index order.
  std::vector<std::int32_t> col_order(n_new, -1);
  std::vector<char> covered(n_new, 0);
  for (std::size_t k = 0; k < p; ++k) {
    col_order[k] = sym->perm_col[k];
    covered[static_cast<std::size_t>(sym->perm_col[k])] = 1;
  }
  std::size_t pos = p;
  for (std::size_t k = p; k < n_old; ++k) {
    const std::int32_t c_new = new_of_old[static_cast<std::size_t>(base.perm_col[k])];
    if (c_new >= 0) {
      col_order[pos++] = c_new;
      covered[static_cast<std::size_t>(c_new)] = 1;
    }
  }
  for (std::size_t c = 0; c < n_new; ++c) {
    if (!covered[c]) col_order[pos++] = static_cast<std::int32_t>(c);
  }
  if (pos != n_new) {
    if (error != nullptr) *error = "partial refactorisation: remap is not injective";
    return false;
  }

  if (!gilbert_peierls(pattern, values, col_order, p, *sym, pinv, floor, error)) return false;
  sym->pattern_fingerprint = pattern.fingerprint();
  sym_ = std::move(sym);
  finish(pattern, true);
  if (reused_columns != nullptr) *reused_columns = p;
  SparseMetrics& metrics = SparseMetrics::get();
  metrics.partial_refactors.add();
  metrics.partial_reused_columns.add(static_cast<std::uint64_t>(p));
  return true;
}

template <typename T>
void SparseLu<T>::solve_in_place(T* b) const {
  const Symbolic& sym = *sym_;
  const std::size_t n = sym.n;
  solve_scratch_.resize(n);
  // Forward: L y = P b, with y[k] living at b[pivot_row[k]] (L has a unit
  // diagonal, row indices are original/unpermuted).
  for (std::size_t k = 0; k < n; ++k) {
    const T yk = b[static_cast<std::size_t>(sym.pivot_row[k])];
    if (yk == T{}) continue;
    for (std::int32_t q = sym.l_ptr[k]; q < sym.l_ptr[k + 1]; ++q) {
      b[static_cast<std::size_t>(sym.l_row[static_cast<std::size_t>(q)])] -=
          l_val_[static_cast<std::size_t>(q)] * yk;
    }
  }
  // Backward: U xp = y, column-oriented, positions descending.
  for (std::size_t k = n; k-- > 0;) {
    const T xk = b[static_cast<std::size_t>(sym.pivot_row[k])] / u_diag_[k];
    solve_scratch_[k] = xk;
    if (xk == T{}) continue;
    for (std::int32_t q = sym.u_ptr[k]; q < sym.u_ptr[k + 1]; ++q) {
      const std::int32_t j = sym.u_pos[static_cast<std::size_t>(q)];
      b[static_cast<std::size_t>(sym.pivot_row[static_cast<std::size_t>(j)])] -=
          u_val_[static_cast<std::size_t>(q)] * xk;
    }
  }
  // Undo the column permutation: position k solved original unknown
  // perm_col[k].
  for (std::size_t k = 0; k < n; ++k) {
    b[static_cast<std::size_t>(sym.perm_col[k])] = solve_scratch_[k];
  }
}

template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

}  // namespace decisive::sim::sparse
