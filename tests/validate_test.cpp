// Tests for SSAM structural validation and the FTA importance measures
// (fta::quantify, exact closed forms).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "decisive/fta/engine.hpp"
#include "decisive/fta/quantify.hpp"
#include "decisive/ssam/validate.hpp"

using namespace decisive;
using namespace decisive::ssam;

namespace {

bool has_rule(const std::vector<ValidationFinding>& findings, const std::string& rule) {
  for (const auto& finding : findings) {
    if (finding.rule == rule) return true;
  }
  return false;
}

struct Fixture {
  SsamModel m;
  ObjectId pkg, sys;

  Fixture() {
    pkg = m.create_component_package("design");
    sys = m.create_component(pkg, "sys");
  }
};

}  // namespace

TEST(Validate, CleanModelHasNoFindings) {
  Fixture f;
  const auto comp = f.m.create_component(f.sys, "c1");
  f.m.obj(comp).set_real("fit", 10.0);
  const auto fm = f.m.add_failure_mode(comp, "Open", 0.3, "lossOfFunction");
  f.m.add_failure_mode(comp, "Short", 0.7, "erroneous");
  f.m.add_safety_mechanism(comp, "sm", 0.9, 1.0, fm);
  EXPECT_TRUE(validate(f.m).empty());
}

TEST(Validate, NegativeFit) {
  Fixture f;
  const auto comp = f.m.create_component(f.sys, "c1");
  f.m.obj(comp).set_real("fit", -1.0);
  EXPECT_TRUE(has_rule(validate(f.m), "comp-fit-negative"));
}

TEST(Validate, DistributionRangeAndSum) {
  Fixture f;
  const auto comp = f.m.create_component(f.sys, "c1");
  // The facade rejects out-of-range values, so set them reflectively (as a
  // buggy importer might).
  const auto fm1 = f.m.add_failure_mode(comp, "A", 0.9, "lossOfFunction");
  f.m.obj(fm1).set_real("distribution", 1.5);
  const auto findings = validate(f.m);
  EXPECT_TRUE(has_rule(findings, "fm-distribution-range"));
  EXPECT_TRUE(has_rule(findings, "fm-distribution-sum"));
}

TEST(Validate, DistributionSumAcrossModes) {
  Fixture f;
  const auto comp = f.m.create_component(f.sys, "c1");
  f.m.add_failure_mode(comp, "A", 0.7, "lossOfFunction");
  f.m.add_failure_mode(comp, "B", 0.7, "erroneous");
  EXPECT_TRUE(has_rule(validate(f.m), "fm-distribution-sum"));
}

TEST(Validate, SmCoverageAndForeignCovers) {
  Fixture f;
  const auto c1 = f.m.create_component(f.sys, "c1");
  const auto c2 = f.m.create_component(f.sys, "c2");
  const auto foreign_fm = f.m.add_failure_mode(c2, "Open", 0.5, "lossOfFunction");
  const auto sm = f.m.add_safety_mechanism(c1, "sm", 0.9, 1.0, foreign_fm);
  f.m.obj(sm).set_real("coverage", 1.2);
  const auto findings = validate(f.m);
  EXPECT_TRUE(has_rule(findings, "sm-coverage-range"));
  EXPECT_TRUE(has_rule(findings, "sm-covers-foreign"));
}

TEST(Validate, NonFiniteValuesFailTheRangeRules) {
  // NaN passes "x < 0" and "x > 1" alike; the rules use the entry checks of
  // base/domain.hpp, which NaN (and an infinite FIT) fails.
  Fixture f;
  const auto comp = f.m.create_component(f.sys, "c1");
  const auto fm = f.m.add_failure_mode(comp, "A", 0.5, "lossOfFunction");
  const auto sm = f.m.add_safety_mechanism(comp, "sm", 0.9, 1.0, fm);
  EXPECT_TRUE(validate(f.m).empty());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  f.m.obj(comp).set_real("fit", nan);
  f.m.obj(fm).set_real("distribution", nan);
  f.m.obj(sm).set_real("coverage", nan);
  auto findings = validate(f.m);
  EXPECT_TRUE(has_rule(findings, "comp-fit-negative"));
  EXPECT_TRUE(has_rule(findings, "fm-distribution-range"));
  EXPECT_TRUE(has_rule(findings, "sm-coverage-range"));
  f.m.obj(comp).set_real("fit", std::numeric_limits<double>::infinity());
  findings = validate(f.m);
  EXPECT_TRUE(has_rule(findings, "comp-fit-negative"));
}

TEST(Validate, RelationshipEndpoints) {
  Fixture f;
  const auto a = f.m.create_component(f.sys, "a");
  const auto a_out = f.m.add_io_node(a, "a.out", "out");
  // Endpoint outside scope: an IONode of a component elsewhere.
  const auto other = f.m.create_component(f.pkg, "elsewhere");
  const auto other_in = f.m.add_io_node(other, "o.in", "in");
  f.m.connect(f.sys, a_out, other_in);
  EXPECT_TRUE(has_rule(validate(f.m), "rel-endpoint-scope"));

  // Missing endpoint (reflective corruption).
  const auto rel = f.m.obj(f.sys).refs("relationships")[0];
  f.m.obj(rel).set_ref("target", model::kNullObject);
  EXPECT_TRUE(has_rule(validate(f.m), "rel-endpoint-missing"));
}

TEST(Validate, CompositeWithoutBoundary) {
  Fixture f;
  const auto a = f.m.create_component(f.sys, "a");
  const auto b = f.m.create_component(f.sys, "b");
  const auto a_out = f.m.add_io_node(a, "a.out", "out");
  const auto b_in = f.m.add_io_node(b, "b.in", "in");
  f.m.connect(f.sys, a_out, b_in);
  EXPECT_TRUE(has_rule(validate(f.m), "composite-io"));
  // Adding boundary nodes clears the finding.
  f.m.add_io_node(f.sys, "in", "in");
  f.m.add_io_node(f.sys, "out", "out");
  EXPECT_FALSE(has_rule(validate(f.m), "composite-io"));
}

TEST(Validate, NameCollision) {
  Fixture f;
  f.m.create_component(f.sys, "dup");
  f.m.create_component(f.sys, "dup");
  EXPECT_TRUE(has_rule(validate(f.m), "name-collision"));
}

TEST(Validate, BadIoDirectionViaReflection) {
  Fixture f;
  const auto a = f.m.create_component(f.sys, "a");
  const auto node = f.m.add_io_node(a, "x", "in");
  f.m.obj(node).set_string("direction", "sideways");
  EXPECT_TRUE(has_rule(validate(f.m), "io-direction"));
}

TEST(Validate, TextRendering) {
  Fixture f;
  EXPECT_NE(to_text(f.m, validate(f.m)).find("well-formed"), std::string::npos);
  f.m.create_component(f.sys, "dup");
  f.m.create_component(f.sys, "dup");
  const auto findings = validate(f.m);
  EXPECT_NE(to_text(f.m, findings).find("name-collision"), std::string::npos);
}

// ----------------------------------------------------- importance measures --

namespace {

struct FtaFixture {
  SsamModel m;
  ObjectId sys, in, out;

  FtaFixture() {
    const auto pkg = m.create_component_package("design");
    sys = m.create_component(pkg, "sys");
    in = m.add_io_node(sys, "in", "in");
    out = m.add_io_node(sys, "out", "out");
  }

  struct Sub {
    ObjectId comp, in, out;
  };
  Sub leaf(const std::string& name, double fit) {
    Sub s;
    s.comp = m.create_component(sys, name);
    m.obj(s.comp).set_real("fit", fit);
    s.in = m.add_io_node(s.comp, name + ".in", "in");
    s.out = m.add_io_node(s.comp, name + ".out", "out");
    m.add_failure_mode(s.comp, "Open", 1.0, "lossOfFunction");
    return s;
  }
};

/// Failure probability of a `fit` FIT loss mode over `hours`.
double failure_probability(double fit, double hours) {
  return 1.0 - std::exp(-fit * 1e-9 * hours);
}

}  // namespace

TEST(Importance, SerialEventsShareBirnbaumOne) {
  FtaFixture f;
  const auto a = f.leaf("a", 1000);
  const auto b = f.leaf("b", 100);
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, a.out, b.in);
  f.m.connect(f.sys, b.out, f.out);
  const double t = 10000.0;
  const auto q = fta::quantify(fta::synthesize_fault_tree_zbdd(f.m, f.sys), t);
  const auto& importance = q.importance;
  ASSERT_EQ(importance.size(), 2u);
  // P(top) = 1 - (1 - p_a)(1 - p_b). An order-1 cut decides alone unless
  // its partner has already failed: B_a = 1 - p_b, B_b = 1 - p_a.
  const double pa = failure_probability(1000, t);
  const double pb = failure_probability(100, t);
  const double top = 1.0 - (1.0 - pa) * (1.0 - pb);
  EXPECT_NEAR(q.exact_probability, top, 1e-15);
  // The higher-rate component dominates Fussell-Vesely: FV_x = p_x / P(top).
  EXPECT_NE(importance[0].label.find("'a'"), std::string::npos);
  EXPECT_NEAR(importance[0].birnbaum, 1.0 - pb, 1e-12);
  EXPECT_NEAR(importance[1].birnbaum, 1.0 - pa, 1e-12);
  EXPECT_NEAR(importance[0].fussell_vesely, pa / top, 1e-12);
  EXPECT_NEAR(importance[1].fussell_vesely, pb / top, 1e-12);
  EXPECT_GT(importance[0].fussell_vesely, importance[1].fussell_vesely);
}

TEST(Importance, RedundantPairBirnbaumIsPartnerProbability) {
  FtaFixture f;
  const auto a = f.leaf("a", 1000);
  const auto b = f.leaf("b", 1000);
  f.m.connect(f.sys, f.in, a.in);
  f.m.connect(f.sys, f.in, b.in);
  f.m.connect(f.sys, a.out, f.out);
  f.m.connect(f.sys, b.out, f.out);
  const double t = 10000.0;
  const double p = failure_probability(1000, t);
  const auto q = fta::quantify(fta::synthesize_fault_tree_zbdd(f.m, f.sys), t);
  ASSERT_EQ(q.importance.size(), 2u);
  EXPECT_NEAR(q.exact_probability, p * p, 1e-15);
  for (const auto& imp : q.importance) {
    EXPECT_NEAR(imp.birnbaum, p, 1e-12);          // decisive only when twin is down
    EXPECT_NEAR(imp.fussell_vesely, 1.0, 1e-12);  // the single cut contains both
  }
}

TEST(Importance, MixedTopologyRanksSerialAboveRedundant) {
  FtaFixture f;
  const auto head = f.leaf("head", 500);
  const auto left = f.leaf("left", 500);
  const auto right = f.leaf("right", 500);
  f.m.connect(f.sys, f.in, head.in);
  f.m.connect(f.sys, head.out, left.in);
  f.m.connect(f.sys, head.out, right.in);
  f.m.connect(f.sys, left.out, f.out);
  f.m.connect(f.sys, right.out, f.out);
  const auto q = fta::quantify(fta::synthesize_fault_tree_zbdd(f.m, f.sys), 10000.0);
  ASSERT_EQ(q.importance.size(), 3u);
  EXPECT_NE(q.importance[0].label.find("'head'"), std::string::npos);
}
