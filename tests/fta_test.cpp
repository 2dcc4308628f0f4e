// Tests for the fault-tree synthesis and its federation with FMEA
// (the paper's future-work item 1). Every tree comes from the shipped ZBDD
// engine and is checked against the path-enumeration oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "decisive/base/error.hpp"
#include "decisive/core/fta.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/fta/quantify.hpp"
#include "decisive/oracle/fta.hpp"

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
  Sub leaf(const std::string& name, double fit, double loss_dist) {
    Sub s;
    s.comp = m.create_component(sys, name);
    m.obj(s.comp).set_real("fit", fit);
    s.in = m.add_io_node(s.comp, name + ".in", "in");
    s.out = m.add_io_node(s.comp, name + ".out", "out");
    if (loss_dist > 0.0) m.add_failure_mode(s.comp, "Open", loss_dist, "lossOfFunction");
    return s;
  }
};

std::vector<std::string> cut_names(const SsamModel& m,
                                   const std::vector<std::vector<ObjectId>>& cuts) {
  std::vector<std::string> out;
  for (const auto& cut : cuts) {
    std::string names;
    for (const ObjectId c : cut) {
      if (!names.empty()) names += "+";
      names += m.obj(c).get_string("name");
    }
    out.push_back(names);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The shipped engine's tree, after checking that the path-enumeration
/// oracle synthesises the identical one (cut sets, labels and rates).
FaultTree synthesize(const SsamModel& m, ObjectId sys) {
  FaultTree tree = fta::synthesize_fault_tree_zbdd(m, sys);
  const FaultTree oracle_tree = oracle::synthesize_fault_tree(m, sys);
  EXPECT_EQ(tree.cut_sets, oracle_tree.cut_sets);
  EXPECT_EQ(tree.to_text(), oracle_tree.to_text());
  return tree;
}

/// fta::quantify's rare-event bound, after checking it against the oracle's
/// rare-event sum.
double rare_event(const FaultTree& tree, double mission_hours) {
  const double bound = fta::quantify(tree, mission_hours).rare_event_bound;
  EXPECT_NEAR(bound, oracle::top_event_probability(tree, mission_hours), 1e-15);
  return bound;
}

}  // namespace

TEST(Fta, SerialChainGivesOrderOneCuts) {
  Fixture f;
  const auto a = f.leaf("a", 100, 0.5);
  const auto b = f.leaf("b", 200, 0.3);
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, b.in);
  f.m.connect(f.sys, b.out, f.out);

  const auto tree = synthesize(f.m, f.sys);
  EXPECT_EQ(cut_names(f.m, tree.cut_sets), (std::vector<std::string>{"a", "b"}));
  ASSERT_FALSE(tree.nodes.empty());
  EXPECT_EQ(tree.nodes[0].kind, GateKind::Or);
  EXPECT_EQ(tree.nodes[0].children.size(), 2u);
}

TEST(Fta, ParallelPairGivesOrderTwoCut) {
  Fixture f;
  const auto a = f.leaf("a", 100, 1.0);
  const auto b = f.leaf("b", 100, 1.0);
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, f.in, b.in);
  f.m.connect(f.sys, a.out, f.out);
  f.m.connect(f.sys, b.out, f.out);

  const auto tree = synthesize(f.m, f.sys);
  EXPECT_EQ(cut_names(f.m, tree.cut_sets), (std::vector<std::string>{"a+b"}));
  // Structure: OR -> AND -> two basic events.
  const auto& top = tree.nodes[0];
  ASSERT_EQ(top.children.size(), 1u);
  const auto& gate = tree.nodes[top.children[0]];
  EXPECT_EQ(gate.kind, GateKind::And);
  EXPECT_EQ(gate.children.size(), 2u);
}

TEST(Fta, DiamondMixesOrders) {
  Fixture f;
  const auto head = f.leaf("head", 10, 0.3);
  const auto left = f.leaf("left", 10, 1.0);
  const auto right = f.leaf("right", 10, 1.0);
  f.m.connect(f.sys, f.in, head.in);
  f.m.connect(f.sys, head.out, left.in);
  f.m.connect(f.sys, head.out, right.in);
  f.m.connect(f.sys, left.out, f.out);
  f.m.connect(f.sys, right.out, f.out);

  const auto tree = synthesize(f.m, f.sys);
  EXPECT_EQ(cut_names(f.m, tree.cut_sets),
            (std::vector<std::string>{"head", "left+right"}));
}

TEST(Fta, MinimalityScreensSupersets) {
  // Serial a followed by parallel (b|c): cuts are {a} and {b,c}; {a,b} etc.
  // must not appear.
  Fixture f;
  const auto a = f.leaf("a", 10, 1.0);
  const auto b = f.leaf("b", 10, 1.0);
  const auto c = f.leaf("c", 10, 1.0);
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, b.in);
  f.m.connect(f.sys, a.out, c.in);
  f.m.connect(f.sys, b.out, f.out);
  f.m.connect(f.sys, c.out, f.out);

  const auto tree = synthesize(f.m, f.sys);
  EXPECT_EQ(cut_names(f.m, tree.cut_sets), (std::vector<std::string>{"a", "b+c"}));
}

TEST(Fta, BasicEventRatesFromLossModes) {
  Fixture f;
  const auto a = f.leaf("a", 100, 0.3);  // 30 FIT loss rate
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  const auto tree = synthesize(f.m, f.sys);
  const FaultTreeNode* basic = nullptr;
  for (const auto& node : tree.nodes) {
    if (node.kind == GateKind::Basic) basic = &node;
  }
  ASSERT_NE(basic, nullptr);
  EXPECT_NEAR(basic->failure_rate, 30e-9, 1e-15);
}

TEST(Fta, TopEventProbabilityRareEventApproximation) {
  Fixture f;
  const auto a = f.leaf("a", 1000, 1.0);  // lambda = 1e-6 /h
  const auto b = f.leaf("b", 1000, 1.0);
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, b.in);
  f.m.connect(f.sys, b.out, f.out);
  const auto tree = synthesize(f.m, f.sys);
  const double t = 1000.0;  // hours
  const double p1 = 1.0 - std::exp(-1e-6 * t);
  EXPECT_NEAR(rare_event(tree, t), 2.0 * p1, 1e-9);

  // Parallel version: product instead of sum.
  Fixture g;
  const auto c = g.leaf("c", 1000, 1.0);
  const auto d = g.leaf("d", 1000, 1.0);
  g.m.connect(g.sys, g.in, c.in);
  g.m.connect(g.sys, g.in, d.in);
  g.m.connect(g.sys, c.out, g.out);
  g.m.connect(g.sys, d.out, g.out);
  const auto parallel = synthesize(g.m, g.sys);
  EXPECT_NEAR(rare_event(parallel, t), p1 * p1, 1e-12);
  EXPECT_LT(rare_event(parallel, t), rare_event(tree, t));
}

TEST(Fta, TextRenderingShowsGatesAndRates) {
  Fixture f;
  const auto a = f.leaf("a", 100, 0.5);
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  const auto text = synthesize(f.m, f.sys).to_text();
  EXPECT_NE(text.find("[OR]"), std::string::npos);
  EXPECT_NE(text.find("loss of 'a'"), std::string::npos);
  EXPECT_NE(text.find("50 FIT"), std::string::npos);
}

TEST(Fta, CutSetSizeBoundRespected) {
  // Triple-parallel: the only cut has size 3; with max size 2 none is found.
  Fixture f;
  std::vector<Fixture::Sub> subs;
  for (int i = 0; i < 3; ++i) {
    subs.push_back(f.leaf("p" + std::to_string(i), 10, 1.0));
    f.m.connect(f.sys, f.in, subs.back().in);
    f.m.connect(f.sys, subs.back().out, f.out);
  }
  EXPECT_TRUE(fta::synthesize_fault_tree_zbdd(f.m, f.sys, {.max_order = 2}).cut_sets.empty());
  EXPECT_EQ(fta::synthesize_fault_tree_zbdd(f.m, f.sys, {.max_order = 3}).cut_sets.size(), 1u);
  oracle::FtaOptions limited;
  limited.max_cut_set_size = 2;
  EXPECT_TRUE(oracle::synthesize_fault_tree(f.m, f.sys, limited).cut_sets.empty());
  oracle::FtaOptions full;
  full.max_cut_set_size = 3;
  EXPECT_EQ(oracle::synthesize_fault_tree(f.m, f.sys, full).cut_sets.size(), 1u);
}

TEST(Fta, CrosscheckAgreesWithFmeaOnCleanModels) {
  Fixture f;
  const auto a = f.leaf("a", 100, 0.5);
  const auto b = f.leaf("b", 100, 1.0);
  const auto c = f.leaf("c", 100, 1.0);
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, b.in);
  f.m.connect(f.sys, a.out, c.in);
  f.m.connect(f.sys, b.out, f.out);
  f.m.connect(f.sys, c.out, f.out);

  const auto tree = synthesize(f.m, f.sys);
  const auto fmea = analyze_component(f.m, f.sys);
  EXPECT_TRUE(crosscheck_with_fmea(f.m, tree, fmea).empty());
}

TEST(Fta, CrosscheckFlagsStructuralCriticalityWithoutLossModes) {
  // 'a' is serial but has NO loss failure mode: the FTA sees an order-1
  // structural cut while the FMEA has nothing to report — the federation
  // surfaces exactly this gap.
  Fixture f;
  const auto a = f.leaf("a", 100, 0.0);  // no failure modes at all
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, f.out);
  const auto tree = synthesize(f.m, f.sys);
  const auto fmea = analyze_component(f.m, f.sys);
  const auto issues = crosscheck_with_fmea(f.m, tree, fmea);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("'a'"), std::string::npos);
}

TEST(Fta, RequiresBoundaryNodes) {
  SsamModel m;
  const auto pkg = m.create_component_package("design");
  const auto sys = m.create_component(pkg, "sys");
  EXPECT_THROW(fta::synthesize_fault_tree_zbdd(m, sys), AnalysisError);
  EXPECT_THROW(oracle::synthesize_fault_tree(m, sys), AnalysisError);
}
