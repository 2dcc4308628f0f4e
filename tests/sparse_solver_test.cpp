// Unit and property tests for the sparse direct solver subsystem: the
// Gilbert-Peierls kernel against the dense oracle, numeric refactorisation,
// partial refactorisation across structural edits, pivot gates, and — once
// the campaign wiring is in — sparse≡dense FMEDA byte-identity.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/sim/dense.hpp"
#include "decisive/sim/solver.hpp"
#include "decisive/sim/sparse.hpp"
#include "rail_subjects.hpp"

using namespace decisive;
using namespace decisive::sim;

namespace {

/// A random sparse test system assembled the way the solver does it: a
/// coordinate stamp stream frozen into a Pattern + slot sequence, values
/// replayed through the slots (duplicates accumulate).
struct TestSystem {
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  std::vector<std::pair<std::pair<int, int>, double>> stamps;  // ((row,col),v)
  std::vector<double> values;                                  // CSC, parallel to pattern
  std::vector<std::vector<double>> dense;                      // nested-vector mirror

  void assemble() {
    values.assign(pattern.nnz(), 0.0);
    dense.assign(pattern.n, std::vector<double>(pattern.n, 0.0));
    for (std::size_t t = 0; t < stamps.size(); ++t) {
      values[static_cast<std::size_t>(slots[t])] += stamps[t].second;
      dense[static_cast<std::size_t>(stamps[t].first.first)]
           [static_cast<std::size_t>(stamps[t].first.second)] += stamps[t].second;
    }
  }
};

/// Diagonally loaded random sparse system (structurally symmetric pattern,
/// like MNA): guaranteed nonsingular, occasionally with duplicate stamps.
TestSystem make_system(std::mt19937& rng, std::size_t n) {
  TestSystem sys;
  std::uniform_int_distribution<int> node(0, static_cast<int>(n) - 1);
  std::uniform_real_distribution<double> mag(0.1, 2.0);
  sparse::PatternBuilder builder;
  builder.begin(n);
  auto stamp = [&](int r, int c, double v) {
    builder.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
    sys.stamps.push_back({{r, c}, v});
  };
  for (int i = 0; i < static_cast<int>(n); ++i) stamp(i, i, 4.0 + mag(rng));
  const std::size_t extras = 2 * n;
  for (std::size_t e = 0; e < extras; ++e) {
    const int r = node(rng);
    const int c = node(rng);
    const double v = mag(rng) - 1.0;
    // Structurally symmetric, like a conductance stamp.
    stamp(r, c, v);
    stamp(c, r, v);
  }
  builder.freeze(sys.pattern, sys.slots);
  sys.assemble();
  return sys;
}

std::vector<double> random_rhs(std::mt19937& rng, std::size_t n) {
  std::uniform_real_distribution<double> mag(-5.0, 5.0);
  std::vector<double> b(n);
  for (double& v : b) v = mag(rng);
  return b;
}

void expect_close(const std::vector<double>& actual, const std::vector<double>& expected,
                  double tol, const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], tol * (1.0 + std::abs(expected[i])))
        << context << " at index " << i;
  }
}

}  // namespace

TEST(SparsePattern, BuilderDeduplicatesAndAccumulates) {
  sparse::PatternBuilder builder;
  builder.begin(3);
  builder.add(0, 0);
  builder.add(2, 1);
  builder.add(0, 0);  // duplicate coordinate, same slot
  builder.add(1, 1);
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  builder.freeze(pattern, slots);
  EXPECT_EQ(pattern.n, 3u);
  EXPECT_EQ(pattern.nnz(), 3u);  // (0,0), (1,1), (2,1)
  EXPECT_EQ(slots[0], slots[2]);
  EXPECT_NE(slots[1], slots[3]);
  // Rows sorted within each column.
  EXPECT_EQ(pattern.row_ind[static_cast<std::size_t>(pattern.col_ptr[1])], 1);
  EXPECT_EQ(pattern.row_ind[static_cast<std::size_t>(pattern.col_ptr[1]) + 1], 2);
}

TEST(SparsePattern, FingerprintSeparatesStructures) {
  std::mt19937 rng(7);
  TestSystem a = make_system(rng, 12);
  TestSystem b = make_system(rng, 12);
  EXPECT_EQ(a.pattern.fingerprint(), a.pattern.fingerprint());
  // Two independently drawn patterns of the same size should differ (the
  // extra stamps land on different coordinates with overwhelming odds).
  EXPECT_NE(a.pattern.fingerprint(), b.pattern.fingerprint());
}

TEST(SparseOrdering, MinDegreeIsAPermutation) {
  std::mt19937 rng(11);
  for (const std::size_t n : {1u, 2u, 5u, 23u, 64u}) {
    TestSystem sys = make_system(rng, n);
    const std::vector<std::int32_t> order = sparse::min_degree_order(sys.pattern);
    ASSERT_EQ(order.size(), n);
    std::vector<char> seen(n, 0);
    for (const std::int32_t c : order) {
      ASSERT_GE(c, 0);
      ASSERT_LT(static_cast<std::size_t>(c), n);
      EXPECT_FALSE(seen[static_cast<std::size_t>(c)]);
      seen[static_cast<std::size_t>(c)] = 1;
    }
  }
}

TEST(SparseLu, FactorMatchesDenseOracle) {
  std::mt19937 rng(42);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 60);
    TestSystem sys = make_system(rng, n);
    sparse::SparseLu<double> lu;
    std::string error;
    ASSERT_TRUE(lu.factor(sys.pattern, sys.values.data(), &error)) << error;
    const std::vector<double> b = random_rhs(rng, n);
    std::vector<double> x = b;
    lu.solve_in_place(x.data());
    const std::vector<double> oracle = dense::solve_dense(sys.dense, b, "singular");
    expect_close(x, oracle, 1e-9, "round " + std::to_string(round));
  }
}

TEST(SparseLu, ComplexFactorMatchesDenseOracle) {
  std::mt19937 rng(43);
  for (int round = 0; round < 10; ++round) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng() % 40);
    TestSystem sys = make_system(rng, n);
    // Promote to complex with a frequency-like imaginary part on the
    // diagonal slots.
    std::vector<std::complex<double>> values(sys.values.size());
    std::vector<std::vector<std::complex<double>>> dense_c(
        n, std::vector<std::complex<double>>(n, 0.0));
    for (std::size_t i = 0; i < sys.values.size(); ++i) values[i] = sys.values[i];
    for (std::size_t c = 0; c < n; ++c) {
      for (std::int32_t p = sys.pattern.col_ptr[c]; p < sys.pattern.col_ptr[c + 1]; ++p) {
        const auto r = static_cast<std::size_t>(sys.pattern.row_ind[static_cast<std::size_t>(p)]);
        if (r == c) values[static_cast<std::size_t>(p)] += std::complex<double>(0.0, 0.5);
        dense_c[r][c] = values[static_cast<std::size_t>(p)];
      }
    }
    sparse::SparseLu<std::complex<double>> lu;
    std::string error;
    ASSERT_TRUE(lu.factor(sys.pattern, values.data(), &error)) << error;
    std::vector<std::complex<double>> b(n);
    for (auto& v : b) v = std::complex<double>(static_cast<double>(rng() % 7) - 3.0, 1.0);
    std::vector<std::complex<double>> x = b;
    lu.solve_in_place(x.data());
    const std::vector<std::complex<double>> oracle = dense::solve_dense(dense_c, b, "singular");
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(x[i] - oracle[i]), 1e-8 * (1.0 + std::abs(oracle[i])))
          << "round " << round << " index " << i;
    }
  }
}

TEST(SparseLu, RefactorReplaysNewValuesOverFrozenPattern) {
  std::mt19937 rng(44);
  TestSystem sys = make_system(rng, 30);
  sparse::SparseLu<double> lu;
  std::string error;
  ASSERT_TRUE(lu.factor(sys.pattern, sys.values.data(), &error)) << error;
  const std::uint64_t factors_before = sparse::SparseMetrics::get().factors.value();

  for (int round = 0; round < 5; ++round) {
    // Perturb every stamp (same structure, new numbers) — the diode
    // relinearisation of a Newton step in miniature.
    for (auto& stamp : sys.stamps) {
      stamp.second *= (stamp.first.first == stamp.first.second) ? 1.1 : 0.9;
    }
    sys.assemble();
    ASSERT_TRUE(lu.refactor(sys.pattern, sys.values.data(), &error)) << error;
    const std::vector<double> b = random_rhs(rng, 30);
    std::vector<double> x = b;
    lu.solve_in_place(x.data());
    const std::vector<double> oracle = dense::solve_dense(sys.dense, b, "singular");
    expect_close(x, oracle, 1e-9, "refactor round " + std::to_string(round));
  }
  // Refactor must not have run any fresh factorisation.
  EXPECT_EQ(sparse::SparseMetrics::get().factors.value(), factors_before);
}

TEST(SparseLu, RefactorPivotGateTripsOnDegradedPivot) {
  // 2x2: factor with a dominant diagonal, then swap dominance so the frozen
  // pivot order is numerically untrustworthy.
  sparse::PatternBuilder builder;
  builder.begin(2);
  builder.add(0, 0);
  builder.add(1, 0);
  builder.add(0, 1);
  builder.add(1, 1);
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  builder.freeze(pattern, slots);

  std::vector<double> good(4);
  good[static_cast<std::size_t>(slots[0])] = 10.0;  // (0,0)
  good[static_cast<std::size_t>(slots[1])] = 1.0;   // (1,0)
  good[static_cast<std::size_t>(slots[2])] = 1.0;   // (0,1)
  good[static_cast<std::size_t>(slots[3])] = 10.0;  // (1,1)
  sparse::SparseLu<double> lu;
  std::string error;
  ASSERT_TRUE(lu.factor(pattern, good.data(), &error)) << error;

  std::vector<double> degraded(4);
  degraded[static_cast<std::size_t>(slots[0])] = 1e-9;  // frozen pivot collapses
  degraded[static_cast<std::size_t>(slots[1])] = 10.0;
  degraded[static_cast<std::size_t>(slots[2])] = 10.0;
  degraded[static_cast<std::size_t>(slots[3])] = 1e-9;
  EXPECT_FALSE(lu.refactor(pattern, degraded.data(), &error));
  EXPECT_NE(error.find("pivot gate"), std::string::npos) << error;

  // A fresh factor (repivot) handles the degraded numbers fine.
  ASSERT_TRUE(lu.factor(pattern, degraded.data(), &error)) << error;
  std::vector<double> x = {1.0, 2.0};
  lu.solve_in_place(x.data());
  std::vector<std::vector<double>> dense_m = {{1e-9, 10.0}, {10.0, 1e-9}};
  expect_close(x, dense::solve_dense(dense_m, {1.0, 2.0}, "singular"), 1e-9, "repivot");
}

TEST(SparseLu, SingularSystemReturnsFalseNotGarbage) {
  // Column 1 is exactly zero.
  sparse::PatternBuilder builder;
  builder.begin(2);
  builder.add(0, 0);
  builder.add(1, 1);
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  builder.freeze(pattern, slots);
  std::vector<double> values = {1.0, 0.0};
  sparse::SparseLu<double> lu;
  std::string error;
  EXPECT_FALSE(lu.factor(pattern, values.data(), &error));
  EXPECT_NE(error.find("singular"), std::string::npos) << error;
  EXPECT_FALSE(lu.factored());
}

TEST(SparseLu, TinyWellScaledSystemIsNotSingular) {
  // Satellite regression (shared floor): every entry ~1e-32 but perfectly
  // conditioned — the old absolute 1e-30 floor called this singular.
  sparse::PatternBuilder builder;
  builder.begin(2);
  builder.add(0, 0);
  builder.add(1, 1);
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  builder.freeze(pattern, slots);
  std::vector<double> values = {1e-32, 2e-32};
  sparse::SparseLu<double> lu;
  std::string error;
  ASSERT_TRUE(lu.factor(pattern, values.data(), &error)) << error;
  std::vector<double> x = {1e-32, 2e-32};
  lu.solve_in_place(x.data());
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 1.0, 1e-9);
}

TEST(SparseLu, PartialFactorReusesCleanPrefixAcrossDeletion) {
  std::mt19937 rng(45);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng() % 40);
    TestSystem base = make_system(rng, n);
    sparse::SparseLu<double> base_lu;
    std::string error;
    ASSERT_TRUE(base_lu.factor(base.pattern, base.values.data(), &error)) << error;

    // Structural edit: delete one unknown (row + column), the shape of a
    // campaign Open/Short on a branch element.
    const std::size_t deleted = static_cast<std::size_t>(rng()) % n;
    std::vector<std::int32_t> new_of_old(n);
    for (std::size_t i = 0; i < n; ++i) {
      new_of_old[i] = i == deleted ? -1
                      : static_cast<std::int32_t>(i < deleted ? i : i - 1);
    }
    TestSystem edited;
    sparse::PatternBuilder builder;
    builder.begin(n - 1);
    for (const auto& stamp : base.stamps) {
      const std::int32_t r = new_of_old[static_cast<std::size_t>(stamp.first.first)];
      const std::int32_t c = new_of_old[static_cast<std::size_t>(stamp.first.second)];
      if (r < 0 || c < 0) continue;
      builder.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
      edited.stamps.push_back({{r, c}, stamp.second});
    }
    builder.freeze(edited.pattern, edited.slots);
    edited.assemble();

    sparse::SparseLu<double> lu;
    std::size_t reused = 0;
    ASSERT_TRUE(lu.partial_factor(*base_lu.symbolic(), base.pattern, new_of_old,
                                  edited.pattern, edited.values.data(), &reused, &error))
        << error;
    EXPECT_LE(reused, n - 1);

    const std::vector<double> b = random_rhs(rng, n - 1);
    std::vector<double> x = b;
    lu.solve_in_place(x.data());
    const std::vector<double> oracle = dense::solve_dense(edited.dense, b, "singular");
    expect_close(x, oracle, 1e-8, "partial round " + std::to_string(round));
  }
}

TEST(SparseLu, PartialFactorReportsReusedColumns) {
  // A structured case where the deleted unknown is eliminated late: a
  // banded chain ordered naturally has its tail column untouched-prefix
  // friendly, so some prefix must be reused.
  const std::size_t n = 40;
  sparse::PatternBuilder builder;
  builder.begin(n);
  std::vector<std::pair<std::pair<int, int>, double>> stamps;
  auto stamp = [&](int r, int c, double v) {
    builder.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
    stamps.push_back({{r, c}, v});
  };
  for (int i = 0; i < static_cast<int>(n); ++i) stamp(i, i, 4.0);
  for (int i = 0; i + 1 < static_cast<int>(n); ++i) {
    stamp(i, i + 1, -1.0);
    stamp(i + 1, i, -1.0);
  }
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  builder.freeze(pattern, slots);
  std::vector<double> values(pattern.nnz(), 0.0);
  for (std::size_t t = 0; t < stamps.size(); ++t) {
    values[static_cast<std::size_t>(slots[t])] += stamps[t].second;
  }
  sparse::SparseLu<double> base_lu;
  std::string error;
  ASSERT_TRUE(base_lu.factor(pattern, values.data(), &error)) << error;

  // Delete the last unknown; everything that was eliminated before any
  // column adjacent to it stays clean.
  std::vector<std::int32_t> new_of_old(n);
  for (std::size_t i = 0; i < n; ++i) {
    new_of_old[i] = i == n - 1 ? -1 : static_cast<std::int32_t>(i);
  }
  sparse::PatternBuilder edited_builder;
  edited_builder.begin(n - 1);
  std::vector<std::pair<std::pair<int, int>, double>> edited_stamps;
  for (const auto& s : stamps) {
    if (s.first.first >= static_cast<int>(n) - 1 || s.first.second >= static_cast<int>(n) - 1) {
      continue;
    }
    edited_builder.add(static_cast<std::size_t>(s.first.first),
                       static_cast<std::size_t>(s.first.second));
    edited_stamps.push_back(s);
  }
  sparse::Pattern edited_pattern;
  std::vector<std::int32_t> edited_slots;
  edited_builder.freeze(edited_pattern, edited_slots);
  std::vector<double> edited_values(edited_pattern.nnz(), 0.0);
  for (std::size_t t = 0; t < edited_stamps.size(); ++t) {
    edited_values[static_cast<std::size_t>(edited_slots[t])] += edited_stamps[t].second;
  }

  sparse::SparseLu<double> lu;
  std::size_t reused = 0;
  ASSERT_TRUE(lu.partial_factor(*base_lu.symbolic(), pattern, new_of_old, edited_pattern,
                                edited_values.data(), &reused, &error))
      << error;
  EXPECT_GT(reused, 0u) << "chain deletion should preserve a clean symbolic prefix";
  std::vector<double> x(n - 1, 1.0);
  lu.solve_in_place(x.data());
  for (const double v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(SparseLu, AdoptedSymbolicRefactorsWithoutOwnFactor) {
  std::mt19937 rng(46);
  TestSystem sys = make_system(rng, 24);
  sparse::SparseLu<double> owner;
  std::string error;
  ASSERT_TRUE(owner.factor(sys.pattern, sys.values.data(), &error)) << error;

  // A second instance (another campaign worker) adopts the shared symbolic
  // and goes straight to the numeric replay.
  sparse::SparseLu<double> worker;
  worker.adopt(owner.symbolic());
  ASSERT_TRUE(worker.refactor(sys.pattern, sys.values.data(), &error)) << error;
  const std::vector<double> b = random_rhs(rng, 24);
  std::vector<double> x = b;
  worker.solve_in_place(x.data());
  expect_close(x, dense::solve_dense(sys.dense, b, "singular"), 1e-9, "adopted");
}

TEST(DensePivotFloor, TinyWellScaledSystemSolves) {
  // Satellite regression: the dense kernel shares the relative floor, so a
  // well-conditioned system of ~1e-32 entries solves instead of throwing.
  const std::vector<std::vector<double>> a = {{1e-32, 0.0}, {0.0, 1e-32}};
  const std::vector<double> x = dense::solve_dense(a, {1e-32, 2e-32}, "singular");
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
}

TEST(DensePivotFloor, AllZeroMatrixStillSingular) {
  const std::vector<std::vector<double>> a = {{0.0, 0.0}, {0.0, 0.0}};
  EXPECT_THROW(dense::solve_dense(a, {1.0, 1.0}, "singular"), SimulationError);
}

// ---------------------------------------------------- solver integration --

namespace {

using rail_subjects::random_rail;
using rail_subjects::random_rail_reliability;

struct CampaignOutput {
  std::string csv;
  std::vector<std::string> warnings;
};

CampaignOutput run_campaign(const sim::BuiltCircuit& built,
                            const core::ReliabilityModel& reliability, bool sparse_on,
                            int jobs, core::CircuitFmeaOptions options = {}) {
  options.sparse = sparse_on;
  options.solver.sparse = sparse_on;
  options.jobs = jobs;
  const auto result = core::analyze_circuit(built, reliability, nullptr, options);
  return CampaignOutput{write_csv(result.to_csv()), result.warnings};
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

}  // namespace

TEST(SparseCampaign, FmedaByteIdenticalAcrossJobCountsAndSeeds) {
  // The acceptance property of the whole subsystem: a sparse-tier campaign
  // emits exactly the bytes of the dense-only campaign — same CSV, same
  // warnings — at every job count, on randomized rails whose fault lists
  // include structural Open/Short faults on branch-unknown elements.
  for (const std::uint32_t seed : {11u, 29u}) {
    const sim::BuiltCircuit built = random_rail(seed, 60);
    const core::ReliabilityModel reliability = random_rail_reliability();
    const CampaignOutput naive = run_campaign(built, reliability, false, 1);
    for (const int jobs : {1, 4, 8}) {
      const CampaignOutput sparse_run = run_campaign(built, reliability, true, jobs);
      EXPECT_EQ(sparse_run.csv, naive.csv)
          << "sparse FMEDA diverged at seed=" << seed << " jobs=" << jobs;
      EXPECT_EQ(sparse_run.warnings, naive.warnings)
          << "warnings diverged at seed=" << seed << " jobs=" << jobs;
    }
  }
}

TEST(SparseCampaign, SparseTierActuallySolvesRowsAndReusesSymbolic) {
  // Guard against the property above passing vacuously: on a big rail the
  // fast path must accept rows, adopt the shared nominal symbolic, absorb
  // at least one structural fault via partial refactorisation, and derive a
  // stamp plan only for the nominal circuit and the stream-changing faults.
  const sim::BuiltCircuit built = random_rail(7u, 60);
  const std::uint64_t rows0 = counter_value("decisive_campaign_sparse_rows_total");
  const std::uint64_t tasks0 = counter_value("decisive_campaign_tasks_total");
  const std::uint64_t reuse0 = counter_value("decisive_sparse_symbolic_reuse_total");
  const std::uint64_t partial0 = counter_value("decisive_sparse_partial_refactors_total");
  const std::uint64_t builds0 = counter_value("decisive_sparse_plan_builds_total");
  (void)run_campaign(built, random_rail_reliability(), true, 1);
  EXPECT_GT(counter_value("decisive_campaign_sparse_rows_total"), rows0)
      << "sparse tier accepted no rows: the byte-identity property is vacuous";
  EXPECT_GT(counter_value("decisive_sparse_symbolic_reuse_total"), reuse0);
  EXPECT_GT(counter_value("decisive_sparse_partial_refactors_total"), partial0)
      << "no structural fault went through partial refactorisation";
  const std::uint64_t tasks = counter_value("decisive_campaign_tasks_total") - tasks0;
  const std::uint64_t builds = counter_value("decisive_sparse_plan_builds_total") - builds0;
  EXPECT_GT(builds, 1u) << "no fault derived its own plan: inductor/source faults untested";
  EXPECT_LT(builds * 4, tasks) << "value-only faults are rebuilding their stamp plans";
}

TEST(SparseCampaign, ContextRunsBelowSparseMinDim) {
  // The campaign pays its symbolic analysis once, so the fast path runs at
  // every dimension: a small rail far below sparse_min_dim still takes it.
  const sim::BuiltCircuit built = rail_subjects::bench_rail(4);
  const core::ReliabilityModel reliability = rail_subjects::bench_rail_reliability();
  const std::uint64_t rows0 = counter_value("decisive_campaign_sparse_rows_total");
  const CampaignOutput dense = run_campaign(built, reliability, false, 1);
  const CampaignOutput fast = run_campaign(built, reliability, true, 1);
  EXPECT_EQ(fast.csv, dense.csv);
  EXPECT_EQ(fast.warnings, dense.warnings);
  EXPECT_EQ(counter_value("decisive_campaign_sparse_rows_total") - rows0, 4u * 5u);
}

TEST(SparseCampaign, ForcedFallbacksStillByteIdentical) {
  // Slam every escape hatch and demand the same bytes: a zero fill budget
  // (every sparse factorisation rejected), and a dimension threshold above
  // the system (one-shot solves stay dense; the campaign context ignores
  // the threshold and must still match).
  const sim::BuiltCircuit built = random_rail(3u, 60);
  const core::ReliabilityModel reliability = random_rail_reliability();
  const CampaignOutput naive = run_campaign(built, reliability, false, 1);

  core::CircuitFmeaOptions fill_gate;
  fill_gate.solver.sparse_max_fill = 0.0;
  const std::uint64_t fill0 = counter_value("decisive_sparse_fallback_fill_total");
  const CampaignOutput gated = run_campaign(built, reliability, true, 4, fill_gate);
  EXPECT_EQ(gated.csv, naive.csv);
  EXPECT_EQ(gated.warnings, naive.warnings);
  EXPECT_GT(counter_value("decisive_sparse_fallback_fill_total"), fill0)
      << "fill gate never tripped: the forced-fallback path went untested";

  core::CircuitFmeaOptions high_floor;
  high_floor.solver.sparse_min_dim = 1 << 20;
  const CampaignOutput dense_only = run_campaign(built, reliability, true, 4, high_floor);
  EXPECT_EQ(dense_only.csv, naive.csv);
  EXPECT_EQ(dense_only.warnings, naive.warnings);
}

TEST(SparseCampaign, JournalsInterchangeBetweenSparseAndDenseRuns) {
  // The sparse knobs are excluded from the campaign fingerprint, so a
  // journal written dense must replay under sparse and reproduce the bytes.
  const sim::BuiltCircuit built = random_rail(5u, 60);
  const core::ReliabilityModel reliability = random_rail_reliability();
  const auto dir = std::filesystem::temp_directory_path() / "decisive_sparse_journal_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const CampaignOutput uninterrupted = run_campaign(built, reliability, true, 1);
  core::CircuitFmeaOptions options;
  options.execution.journal_path = (dir / "campaign.journal").string();
  const CampaignOutput dense_run = run_campaign(built, reliability, false, 1, options);
  const CampaignOutput replayed = run_campaign(built, reliability, true, 1, options);
  EXPECT_EQ(dense_run.csv, uninterrupted.csv);
  EXPECT_EQ(replayed.csv, uninterrupted.csv);
  EXPECT_EQ(replayed.warnings, uninterrupted.warnings);
  std::filesystem::remove_all(dir);
}

TEST(SparseSolver, DcOperatingPointMatchesDenseToSolverPrecision) {
  // The solver-level contract is *correctness*, not bit-identity: the sparse
  // kernel pivots differently, so readings agree to solver precision only.
  // (Byte-identity is a campaign-level promise, tested above.)
  const sim::BuiltCircuit built = random_rail(13u, 60);
  SolveOptions dense_opt;
  dense_opt.sparse = false;
  SolveOptions sparse_opt;
  sparse_opt.sparse = true;
  sparse_opt.sparse_min_dim = 1;  // force the sparse path
  const OperatingPoint a = dc_operating_point(built.circuit, dense_opt);
  const OperatingPoint b = dc_operating_point(built.circuit, sparse_opt);
  ASSERT_EQ(a.readings.size(), b.readings.size());
  for (const auto& [name, value] : a.readings) {
    EXPECT_NEAR(b.reading(name), value, 1e-6 * std::max(1.0, std::abs(value)))
        << "reading " << name;
  }
}
