// Tests for Algorithm 1 (graph-based automated FMEA on SSAM models),
// including a property-based equivalence check against a brute-force
// single-point-failure oracle on random layered architectures.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/table.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/oracle/paths.hpp"
#include "decisive/ssam/graph.hpp"

using namespace decisive;
using namespace decisive::core;
using ssam::ObjectId;
using ssam::SsamModel;

namespace {

struct Fixture {
  SsamModel m;
  ObjectId sys, in, out;

  Fixture() {
    const auto pkg = m.create_component_package("design");
    sys = m.create_component(pkg, "sys");
    in = m.add_io_node(sys, "in", "in");
    out = m.add_io_node(sys, "out", "out");
  }

  struct Sub {
    ObjectId comp, in, out;
  };
  Sub leaf(const std::string& name, double fit = 100.0) {
    Sub s;
    s.comp = m.create_component(sys, name);
    m.obj(s.comp).set_real("fit", fit);
    s.in = m.add_io_node(s.comp, name + ".in", "in");
    s.out = m.add_io_node(s.comp, name + ".out", "out");
    return s;
  }
};

const FmedaRow* find_row(const FmedaResult& result, const std::string& component,
                         const std::string& mode) {
  for (const auto& row : result.rows) {
    if (row.component == component && row.failure_mode == mode) return &row;
  }
  return nullptr;
}

bool has_warning(const FmedaResult& result, const std::string& needle) {
  for (const auto& warning : result.warnings) {
    if (warning.find(needle) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

TEST(GraphFmea, SerialLossModesAreSinglePoint) {
  Fixture f;
  const auto a = f.leaf("a");
  const auto b = f.leaf("b");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, b.in);
  f.m.connect(f.sys, b.out, f.out);
  f.m.add_failure_mode(a.comp, "Open", 0.5, "lossOfFunction");
  f.m.add_failure_mode(b.comp, "Open", 0.5, "lossOfFunction");

  const auto result = analyze_component(f.m, f.sys);
  EXPECT_TRUE(find_row(result, "a", "Open")->safety_related);
  EXPECT_TRUE(find_row(result, "b", "Open")->safety_related);
  EXPECT_EQ(find_row(result, "a", "Open")->effect, EffectClass::DVF);
}

TEST(GraphFmea, RedundantBranchIsNotSinglePoint) {
  Fixture f;
  const auto a = f.leaf("a");
  const auto b = f.leaf("b");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, f.in, b.in);
  f.m.connect(f.sys, a.out, f.out);
  f.m.connect(f.sys, b.out, f.out);
  f.m.add_failure_mode(a.comp, "Open", 1.0, "lossOfFunction");
  f.m.add_failure_mode(b.comp, "Open", 1.0, "lossOfFunction");

  const auto result = analyze_component(f.m, f.sys);
  EXPECT_FALSE(find_row(result, "a", "Open")->safety_related);
  EXPECT_FALSE(find_row(result, "b", "Open")->safety_related);
  EXPECT_DOUBLE_EQ(result.spfm(), 1.0);  // nothing safety-related
}

TEST(GraphFmea, NonLossModeWithoutTraceabilityWarns) {
  Fixture f;
  const auto a = f.leaf("a");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  f.m.add_failure_mode(a.comp, "Short", 0.7, "erroneous");

  const auto result = analyze_component(f.m, f.sys);
  EXPECT_TRUE(has_warning(result, "manual review"));
  EXPECT_FALSE(find_row(result, "a", "Short")->safety_related);
}

TEST(GraphFmea, AffectedComponentTraceabilityInfersCriticality) {
  Fixture f;
  const auto a = f.leaf("a");
  const auto b = f.leaf("b");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, b.in);
  f.m.connect(f.sys, b.out, f.out);
  // "Short" of a affects b (which is on all paths) -> safety-related, IVF.
  const auto fm = f.m.add_failure_mode(a.comp, "Short", 0.7, "erroneous");
  f.m.obj(fm).add_ref("affectedComponents", b.comp);

  const auto result = analyze_component(f.m, f.sys);
  const auto* row = find_row(result, "a", "Short");
  EXPECT_TRUE(row->safety_related);
  EXPECT_EQ(row->effect, EffectClass::IVF);
  EXPECT_TRUE(result.warnings.empty());
}

TEST(GraphFmea, AffectedRedundantComponentIsNotCritical) {
  Fixture f;
  const auto a = f.leaf("a");
  const auto b1 = f.leaf("b1");
  const auto b2 = f.leaf("b2");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, b1.in);
  f.m.connect(f.sys, a.out, b2.in);
  f.m.connect(f.sys, b1.out, f.out);
  f.m.connect(f.sys, b2.out, f.out);
  const auto fm = f.m.add_failure_mode(a.comp, "Glitch", 0.2, "erroneous");
  f.m.obj(fm).add_ref("affectedComponents", b1.comp);  // b1 is redundant

  const auto result = analyze_component(f.m, f.sys);
  EXPECT_FALSE(find_row(result, "a", "Glitch")->safety_related);
}

TEST(GraphFmea, VerdictsWrittenBackIntoModel) {
  Fixture f;
  const auto a = f.leaf("a");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  const auto fm = f.m.add_failure_mode(a.comp, "Open", 1.0, "lossOfFunction");

  analyze_component(f.m, f.sys);
  EXPECT_TRUE(f.m.obj(fm).get_bool("safetyRelated"));
  ASSERT_EQ(f.m.obj(fm).refs("effects").size(), 1u);
  EXPECT_EQ(f.m.obj(f.m.obj(fm).refs("effects")[0]).get_string("classification"), "DVF");
}

TEST(GraphFmea, ModelledMechanismBestCoverageApplies) {
  Fixture f;
  const auto a = f.leaf("a");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  const auto fm = f.m.add_failure_mode(a.comp, "Open", 1.0, "lossOfFunction");
  f.m.add_safety_mechanism(a.comp, "weak", 0.5, 1.0, fm);
  f.m.add_safety_mechanism(a.comp, "strong", 0.95, 2.0, fm);
  f.m.add_safety_mechanism(a.comp, "blanket", 0.7, 0.5, model::kNullObject);  // covers all

  const auto result = analyze_component(f.m, f.sys);
  const auto* row = find_row(result, "a", "Open");
  EXPECT_EQ(row->safety_mechanism, "strong");
  EXPECT_DOUBLE_EQ(row->sm_coverage, 0.95);

  GraphFmeaOptions no_sm;
  no_sm.apply_modelled_mechanisms = false;
  const auto plain = analyze_component(f.m, f.sys, no_sm);
  EXPECT_TRUE(find_row(plain, "a", "Open")->safety_mechanism.empty());
}

TEST(GraphFmea, RecursesIntoCompositeSubcomponents) {
  Fixture f;
  const auto outer = f.leaf("outer");
  f.m.connect(f.sys, f.in, outer.in);
  f.m.connect(f.sys, outer.out, f.out);
  // outer contains a serial inner component.
  const auto inner = f.m.create_component(outer.comp, "inner");
  f.m.obj(inner).set_real("fit", 50.0);
  const auto inner_in = f.m.add_io_node(inner, "inner.in", "in");
  const auto inner_out = f.m.add_io_node(inner, "inner.out", "out");
  f.m.connect(outer.comp, outer.in, inner_in);
  f.m.connect(outer.comp, inner_out, outer.out);
  f.m.add_failure_mode(inner, "Open", 1.0, "lossOfFunction");

  const auto result = analyze_component(f.m, f.sys);
  const auto* row = find_row(result, "inner", "Open");
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->safety_related);
}

TEST(GraphFmea, CompositeWithoutIoNodesWarnsInsteadOfThrowing) {
  Fixture f;
  const auto outer = f.leaf("outer");
  f.m.connect(f.sys, f.in, outer.in);
  f.m.connect(f.sys, outer.out, f.out);
  const auto inner = f.m.create_component(outer.comp, "inner");
  (void)inner;
  // outer has io nodes (it is a leaf fixture) but inner exists -> recursion
  // works; now strip outer's nodes scenario: create a second composite with
  // no io nodes at all.
  const auto bare = f.m.create_component(f.sys, "bare");
  f.m.create_component(bare, "bare.inner");

  const auto result = analyze_component(f.m, f.sys);
  bool warned = false;
  for (const auto& warning : result.warnings) {
    if (warning.find("cannot recurse") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST(GraphFmea, ReRunningIsIdempotent) {
  Fixture f;
  const auto a = f.leaf("a");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  const auto fm = f.m.add_failure_mode(a.comp, "Open", 1.0, "lossOfFunction");

  const auto first = analyze_component(f.m, f.sys);
  const size_t size_after_first = f.m.size();
  const auto second = analyze_component(f.m, f.sys);
  const auto third = analyze_component(f.m, f.sys);

  // Re-running must not accumulate FailureEffect objects on the model.
  EXPECT_EQ(f.m.size(), size_after_first);
  ASSERT_EQ(f.m.obj(fm).refs("effects").size(), 1u);
  EXPECT_EQ(write_csv(first.to_csv()), write_csv(second.to_csv()));
  EXPECT_EQ(write_csv(second.to_csv()), write_csv(third.to_csv()));
}

TEST(GraphFmea, ReRunningUpdatesStaleEffectClassification) {
  Fixture f;
  const auto a = f.leaf("a");
  const auto b = f.leaf("b");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  const auto fm = f.m.add_failure_mode(a.comp, "Open", 1.0, "lossOfFunction");

  analyze_component(f.m, f.sys);
  ASSERT_EQ(f.m.obj(f.m.obj(fm).refs("effects")[0]).get_string("classification"), "DVF");

  // Design change: add a redundant branch; a is no longer a single point.
  f.m.connect(f.sys, f.in, b.in);
  f.m.connect(f.sys, b.out, f.out);
  analyze_component(f.m, f.sys);
  ASSERT_EQ(f.m.obj(fm).refs("effects").size(), 1u);
  EXPECT_EQ(f.m.obj(f.m.obj(fm).refs("effects")[0]).get_string("classification"), "");
  EXPECT_FALSE(f.m.obj(fm).get_bool("safetyRelated"));
}

TEST(GraphFmea, DuplicateNamesAcrossLevelsAggregateByIdentity) {
  // Two distinct components both named "Regulator": one at the top level,
  // one nested inside a composite. Metrics must count both FITs.
  Fixture f;
  const auto reg1 = f.leaf("Regulator", 100.0);
  const auto outer = f.leaf("outer", 10.0);
  f.m.connect(f.sys, f.in, reg1.in);
  f.m.connect(f.sys, reg1.out, outer.in);
  f.m.connect(f.sys, outer.out, f.out);
  f.m.add_failure_mode(reg1.comp, "Open", 1.0, "lossOfFunction");

  const auto reg2 = f.m.create_component(outer.comp, "Regulator");
  f.m.obj(reg2).set_real("fit", 40.0);
  const auto reg2_in = f.m.add_io_node(reg2, "reg2.in", "in");
  const auto reg2_out = f.m.add_io_node(reg2, "reg2.out", "out");
  f.m.connect(outer.comp, outer.in, reg2_in);
  f.m.connect(outer.comp, reg2_out, outer.out);
  f.m.add_failure_mode(reg2, "Open", 1.0, "lossOfFunction");

  const auto result = analyze_component(f.m, f.sys);
  // Both Regulators are single points; the denominator counts each identity.
  EXPECT_DOUBLE_EQ(result.total_safety_related_fit(), 140.0);
  EXPECT_EQ(result.safety_related_components().size(), 2u);
  EXPECT_EQ(result.rows_of("Regulator").size(), 2u);
  EXPECT_EQ(result.rows_of(static_cast<std::uint64_t>(reg1.comp)).size(), 1u);
  EXPECT_EQ(result.rows_of(static_cast<std::uint64_t>(reg2)).size(), 1u);
  // Qualified paths disambiguate the display name.
  EXPECT_EQ(result.rows_of(static_cast<std::uint64_t>(reg1.comp))[0]->component_path,
            "sys/Regulator");
  EXPECT_EQ(result.rows_of(static_cast<std::uint64_t>(reg2))[0]->component_path,
            "sys/outer/Regulator");
}

TEST(GraphFmea, DegenerateSpfmIsSurfacedNotClaimedAsAsilD) {
  Fixture f;
  const auto a = f.leaf("a");
  const auto b = f.leaf("b");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, f.in, b.in);
  f.m.connect(f.sys, a.out, f.out);
  f.m.connect(f.sys, b.out, f.out);
  f.m.add_failure_mode(a.comp, "Open", 1.0, "lossOfFunction");

  const auto result = analyze_component(f.m, f.sys);
  ASSERT_FALSE(result.has_safety_related());
  EXPECT_DOUBLE_EQ(result.spfm(), 1.0);  // documented convention
  EXPECT_EQ(result.asil_label(), "no safety-related hardware");
  EXPECT_TRUE(has_warning(result, "not an ASIL-D claim"));
}

TEST(GraphFmea, InoutNodesActAsBothDirections) {
  // A subcomponent exposing a single inout node still carries the signal:
  // in -> x (inout) -> out makes X a single point.
  Fixture f;
  const auto x = f.m.create_component(f.sys, "X");
  f.m.obj(x).set_real("fit", 25.0);
  const auto xio = f.m.add_io_node(x, "x.io", "inout");
  f.m.connect(f.sys, f.in, xio);
  f.m.connect(f.sys, xio, f.out);
  f.m.add_failure_mode(x, "Open", 1.0, "lossOfFunction");

  const auto result = analyze_component(f.m, f.sys);
  const auto* row = find_row(result, "X", "Open");
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->safety_related);
}

TEST(GraphFmea, GarbageDirectionRaisesAnalysisError) {
  Fixture f;
  const auto a = f.leaf("a");
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  f.m.add_failure_mode(a.comp, "Open", 1.0, "lossOfFunction");
  // add_io_node validates, so corrupt the attribute directly (e.g. an
  // imported model with a typo).
  f.m.obj(a.in).set_string("direction", "Imput");

  try {
    analyze_component(f.m, f.sys);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("Imput"), std::string::npos) << message;
    EXPECT_NE(message.find("a.in"), std::string::npos) << message;
  }
}

TEST(GraphFmea, DenseComponentNoLongerThrowsPathExplosion) {
  // 8 fully-connected layers of width 6: 6^8 ≈ 1.7M simple paths — far past
  // the old enumeration guard. The dominator engine decides without
  // materialising any of them.
  Fixture f;
  std::vector<std::vector<Fixture::Sub>> grid;
  for (int layer = 0; layer < 8; ++layer) {
    std::vector<Fixture::Sub> row;
    for (int i = 0; i < 6; ++i) {
      row.push_back(f.leaf("L" + std::to_string(layer) + "C" + std::to_string(i)));
      f.m.add_failure_mode(row.back().comp, "Open", 1.0, "lossOfFunction");
    }
    grid.push_back(std::move(row));
  }
  for (const auto& sub : grid.front()) f.m.connect(f.sys, f.in, sub.in);
  for (size_t layer = 0; layer + 1 < grid.size(); ++layer) {
    for (const auto& from : grid[layer]) {
      for (const auto& to : grid[layer + 1]) f.m.connect(f.sys, from.out, to.in);
    }
  }
  for (const auto& sub : grid.back()) f.m.connect(f.sys, sub.out, f.out);

  const auto graph = ssam::build_graph(f.m, f.sys);
  EXPECT_THROW(oracle::enumerate_paths(graph), AnalysisError);  // the old engine

  const auto result = analyze_component(f.m, f.sys);  // the new one completes
  EXPECT_EQ(result.rows.size(), 48u);
  for (const auto& row : result.rows) {
    EXPECT_FALSE(row.safety_related) << row.component;  // every layer is redundant
  }
}

TEST(GraphFmea, DeepChainDoesNotOverflowTheStack) {
  // A 10k-deep serial chain: every link is a single point. Recursive DFS
  // would blow the call stack here; the engine must stay iterative.
  constexpr int kDepth = 10000;
  Fixture f;
  ObjectId previous = f.in;
  ObjectId first = model::kNullObject;
  ObjectId last = model::kNullObject;
  for (int i = 0; i < kDepth; ++i) {
    const auto link = f.leaf("link" + std::to_string(i), 1.0);
    f.m.connect(f.sys, previous, link.in);
    previous = link.out;
    if (i == 0) first = link.comp;
    if (i == kDepth - 1) last = link.comp;
  }
  f.m.connect(f.sys, previous, f.out);
  f.m.add_failure_mode(first, "Open", 1.0, "lossOfFunction");
  f.m.add_failure_mode(last, "Open", 1.0, "lossOfFunction");

  const auto graph = ssam::build_graph(f.m, f.sys);
  const ssam::SinglePointAnalysis analysis(graph);
  EXPECT_TRUE(analysis.has_path());
  EXPECT_TRUE(analysis.is_single_point(first));
  EXPECT_TRUE(analysis.is_single_point(last));

  const auto result = analyze_component(f.m, f.sys);
  EXPECT_TRUE(find_row(result, "link0", "Open")->safety_related);
  EXPECT_TRUE(find_row(result, "link" + std::to_string(kDepth - 1), "Open")->safety_related);
}

TEST(GraphFmea, OutputIsByteIdenticalForAnyJobCount) {
  // Nested architecture with several units so the pool actually has work.
  Fixture f;
  ObjectId previous = f.in;
  for (int i = 0; i < 6; ++i) {
    const auto outer = f.leaf("outer" + std::to_string(i), 10.0 + i);
    f.m.connect(f.sys, previous, outer.in);
    previous = outer.out;
    const auto inner = f.m.create_component(outer.comp, "inner" + std::to_string(i));
    f.m.obj(inner).set_real("fit", 5.0 + i);
    const auto inner_in = f.m.add_io_node(inner, "i" + std::to_string(i) + ".in", "in");
    const auto inner_out = f.m.add_io_node(inner, "i" + std::to_string(i) + ".out", "out");
    f.m.connect(outer.comp, outer.in, inner_in);
    f.m.connect(outer.comp, inner_out, outer.out);
    f.m.add_failure_mode(outer.comp, "Open", 0.6, "lossOfFunction");
    f.m.add_failure_mode(inner, "Open", 1.0, "lossOfFunction");
  }
  f.m.connect(f.sys, previous, f.out);

  GraphFmeaOptions serial;
  serial.jobs = 1;
  const auto baseline = analyze_component(f.m, f.sys, serial);
  for (const int jobs : {2, 4, 0}) {
    GraphFmeaOptions options;
    options.jobs = jobs;
    const auto parallel = analyze_component(f.m, f.sys, options);
    EXPECT_EQ(write_csv(baseline.to_csv()), write_csv(parallel.to_csv())) << jobs;
    EXPECT_EQ(baseline.warnings, parallel.warnings) << jobs;
  }
}

// ------------------------------------------------- brute-force equivalence --

namespace {

/// Oracle: component c is a single point of failure iff removing c's through
/// edges disconnects every input->output path.
bool oracle_single_point(const ssam::ComponentGraph& graph, ObjectId component) {
  // BFS over edges, skipping any node owned by `component`.
  std::set<ObjectId> visited;
  std::vector<ObjectId> stack;
  const std::set<ObjectId> outputs(graph.outputs.begin(), graph.outputs.end());
  auto blocked = [&](ObjectId node) {
    const auto it = graph.owner.find(node);
    return it != graph.owner.end() && it->second == component;
  };
  for (const ObjectId input : graph.inputs) {
    if (!blocked(input)) stack.push_back(input);
  }
  while (!stack.empty()) {
    const ObjectId node = stack.back();
    stack.pop_back();
    if (!visited.insert(node).second) continue;
    if (outputs.contains(node)) return false;  // still reachable
    const auto it = graph.edges.find(node);
    if (it == graph.edges.end()) continue;
    for (const ObjectId next : it->second) {
      if (!blocked(next)) stack.push_back(next);
    }
  }
  return true;  // no output reachable without the component
}

}  // namespace

class Algorithm1Property : public ::testing::TestWithParam<int> {};

TEST_P(Algorithm1Property, MatchesBruteForceOracleOnRandomArchitectures) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Fixture f;

  // Random layered architecture: 2-5 layers, 1-3 components per layer,
  // random forward wiring that keeps every component reachable.
  const int layers = 2 + static_cast<int>(rng.below(4));
  std::vector<std::vector<Fixture::Sub>> grid;
  for (int layer = 0; layer < layers; ++layer) {
    const int width = 1 + static_cast<int>(rng.below(3));
    std::vector<Fixture::Sub> row;
    for (int i = 0; i < width; ++i) {
      row.push_back(f.leaf("L" + std::to_string(layer) + "C" + std::to_string(i)));
      f.m.add_failure_mode(row.back().comp, "Open", 1.0, "lossOfFunction");
    }
    grid.push_back(std::move(row));
  }
  // Wire inputs -> layer0; each component to >=1 component of the next
  // layer; last layer -> output.
  for (const auto& sub : grid.front()) f.m.connect(f.sys, f.in, sub.in);
  for (int layer = 0; layer + 1 < layers; ++layer) {
    for (const auto& from : grid[static_cast<size_t>(layer)]) {
      bool connected = false;
      for (const auto& to : grid[static_cast<size_t>(layer) + 1]) {
        if (rng.chance(0.6) || (!connected && &to == &grid[static_cast<size_t>(layer) + 1].back())) {
          f.m.connect(f.sys, from.out, to.in);
          connected = true;
        }
      }
    }
  }
  for (const auto& sub : grid.back()) f.m.connect(f.sys, sub.out, f.out);

  // The dominator engine vs brute-force path enumeration vs the
  // reachability oracle — all three must agree on every subcomponent.
  const auto graph = ssam::build_graph(f.m, f.sys);
  const auto paths = oracle::enumerate_paths(graph);
  const ssam::SinglePointAnalysis analysis(graph);
  for (const auto& layer : grid) {
    for (const auto& sub : layer) {
      EXPECT_EQ(analysis.is_single_point(sub.comp),
                oracle::on_all_paths(graph, paths, sub.comp))
          << "component " << sub.comp;
    }
  }

  const auto result = analyze_component(f.m, f.sys);
  for (const auto& row : result.rows) {
    const ObjectId comp = f.m.find_by_name(ssam::cls::Component, row.component);
    ASSERT_NE(comp, model::kNullObject);
    // A component with no path through it at all can never be safety-
    // related by Algorithm 1; the oracle agrees unless the component is
    // unreachable (then removing it changes nothing).
    EXPECT_EQ(row.safety_related, oracle_single_point(graph, comp) &&
                                      oracle::on_all_paths(graph, paths, comp))
        << row.component;
    // And the two formulations must agree whenever the component lies on at
    // least one path.
    bool on_some_path = false;
    for (const auto& path : paths) {
      for (const ObjectId node : path) {
        const auto it = graph.owner.find(node);
        if (it != graph.owner.end() && it->second == comp) on_some_path = true;
      }
    }
    if (on_some_path) {
      EXPECT_EQ(oracle::on_all_paths(graph, paths, comp), oracle_single_point(graph, comp))
          << row.component;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Algorithm1Property, ::testing::Range(1, 31));
