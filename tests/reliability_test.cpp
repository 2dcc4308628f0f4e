// Unit tests for the reliability model and the safety-mechanism catalogue
// (DECISIVE Step 3 inputs).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "decisive/base/error.hpp"
#include "decisive/core/reliability.hpp"
#include "decisive/core/safety_mechanism.hpp"

using namespace decisive;
using namespace decisive::core;

// ------------------------------------------------------------- reliability --

TEST(ComponentTypeMatching, CaseInsensitiveAndAliases) {
  EXPECT_TRUE(component_type_matches("Diode", "diode"));
  EXPECT_TRUE(component_type_matches("MC", "MCU"));
  EXPECT_TRUE(component_type_matches("Microcontroller", "mc"));
  EXPECT_TRUE(component_type_matches("micro controller", "MCU"));
  EXPECT_FALSE(component_type_matches("Diode", "Capacitor"));
  EXPECT_FALSE(component_type_matches("MC", "Diode"));
}

TEST(ReliabilityModel, AddAndFind) {
  ReliabilityModel model;
  model.add("Diode", 10, {{"Open", 0.3}, {"Short", 0.7}});
  const auto* entry = model.find("diode");
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->fit, 10.0);
  ASSERT_EQ(entry->modes.size(), 2u);
  EXPECT_EQ(model.find("Resistor"), nullptr);
}

TEST(ReliabilityModel, AddMergesIntoExistingAliasGroup) {
  ReliabilityModel model;
  model.add("MC", 300, {{"RAM Failure", 0.6}});
  model.add("MCU", 350, {{"Clock Failure", 0.4}});
  const auto* entry = model.find("Microcontroller");
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->fit, 350.0);  // latest wins
  EXPECT_EQ(entry->modes.size(), 2u);   // modes accumulate
}

TEST(ReliabilityModel, RejectsInvalidData) {
  ReliabilityModel model;
  EXPECT_THROW(model.add("X", -1, {}), AnalysisError);
  EXPECT_THROW(model.add("X", 10, {{"A", 1.5}}), AnalysisError);
  EXPECT_THROW(model.add("X", 10, {{"A", 0.7}, {"B", 0.7}}), AnalysisError);  // sum > 1
  // NaN is not a share: rejected at load time, not at the SPFM step.
  EXPECT_THROW(model.add("X", 10, {{"A", std::nan("")}}), AnalysisError);
  const auto table = parse_csv("Component,FIT,Failure_Mode,Distribution\nDiode,10,Open,nan\n");
  EXPECT_THROW(ReliabilityModel::from_table(table), AnalysisError);
  EXPECT_TRUE(model.entries().empty());
}

TEST(ReliabilityModel, FitMustBeFiniteAndNonNegative) {
  // Workbook rows whose FIT is not a finite number >= 0 are rejected at load
  // time (NaN compares false against any bound, so `fit < 0` alone lets it in).
  for (const char* fit : {"nan", "inf", "-inf", "-5"}) {
    const std::string csv = std::string("Component,FIT,Failure_Mode,Distribution\nMC,") + fit +
                            ",RAM Failure,100%\n";
    EXPECT_THROW(ReliabilityModel::from_table(parse_csv(csv)), AnalysisError) << fit;
  }
  // 1e308 is in the domain; the overflow of the FMEDA's FIT sums is caught
  // by FmedaResult::spfm() instead.
  const auto model = ReliabilityModel::from_table(parse_csv(
      "Component,FIT,Failure_Mode,Distribution\nMC,1e308,RAM Failure,100%\n"
      "Diode,1e308,Open,100%\n"));
  EXPECT_EQ(model.find("MC")->fit, 1e308);
  EXPECT_NO_THROW(check_fit(0.0, "X"));
  EXPECT_THROW(check_fit(-0.5, "X"), AnalysisError);
}

TEST(ReliabilityModel, FromTableWithContinuationRows) {
  const auto table = parse_csv(
      "Component,FIT,Failure_Mode,Distribution\n"
      "Diode,10,Open,30%\n"
      ",,Short,70%\n"
      "MC,300,RAM Failure,100%\n");
  const auto model = ReliabilityModel::from_table(table);
  ASSERT_EQ(model.entries().size(), 2u);
  EXPECT_DOUBLE_EQ(model.find("Diode")->modes[1].distribution, 0.70);
  EXPECT_DOUBLE_EQ(model.find("MCU")->fit, 300.0);
}

TEST(ReliabilityModel, FromTableAcceptsFractionAndPercentForms) {
  const auto table = parse_csv(
      "Component,FIT,Failure_Mode,Distribution\n"
      "A,10,m1,0.3\n"
      "B,10,m2,30%\n"
      "C,10,m3,30\n");  // bare 30 means 30%
  const auto model = ReliabilityModel::from_table(table);
  for (const char* type : {"A", "B", "C"}) {
    EXPECT_DOUBLE_EQ(model.find(type)->modes[0].distribution, 0.30) << type;
  }
}

TEST(ReliabilityModel, FromTableErrors) {
  EXPECT_THROW(ReliabilityModel::from_table(parse_csv("Component,FIT\nDiode,10\n")),
               AnalysisError);  // missing columns
  EXPECT_THROW(ReliabilityModel::from_table(
                   parse_csv("Component,FIT,Failure_Mode,Distribution\n,,Open,30%\n")),
               AnalysisError);  // continuation before any component
  EXPECT_THROW(ReliabilityModel::from_table(
                   parse_csv("Component,FIT,Failure_Mode,Distribution\nDiode,,Open,30%\n")),
               AnalysisError);  // component without FIT
  EXPECT_THROW(ReliabilityModel::from_table(
                   parse_csv("Component,FIT,Failure_Mode,Distribution\nDiode,10,,30%\n")),
               AnalysisError);  // row without mode
}

TEST(ReliabilityModel, ToTableRoundTrip) {
  ReliabilityModel model;
  model.add("Diode", 10, {{"Open", 0.3}, {"Short", 0.7}});
  model.add("Inductor", 15, {{"Open", 0.3}});
  const auto back = ReliabilityModel::from_table(model.to_table());
  ASSERT_EQ(back.entries().size(), 2u);
  EXPECT_DOUBLE_EQ(back.find("Diode")->fit, 10.0);
  EXPECT_DOUBLE_EQ(back.find("Diode")->modes[0].distribution, 0.30);
}

// -------------------------------------------------------- safety mechanisms --

TEST(SafetyMechanismModel, ApplicableAndBest) {
  SafetyMechanismModel model;
  model.add({"CPU", "Crash", "watchdog", 0.90, 1.5});
  model.add({"CPU", "Crash", "lockstep", 0.99, 8.0});
  model.add({"CPU", "RAM Failure", "ECC", 0.99, 2.0});
  EXPECT_EQ(model.applicable("cpu", "crash").size(), 2u);
  EXPECT_EQ(model.applicable("CPU", "Overheat").size(), 0u);
  const auto* best = model.best("CPU", "Crash");
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->name, "lockstep");
  EXPECT_EQ(model.best("GPU", "Crash"), nullptr);
}

TEST(SafetyMechanismModel, RejectsInvalidData) {
  SafetyMechanismModel model;
  EXPECT_THROW(model.add({"X", "m", "sm", 1.5, 1.0}), AnalysisError);
  EXPECT_THROW(model.add({"X", "m", "sm", 0.5, -1.0}), AnalysisError);
  // NaN coverage or cost, and an infinite cost, are rejected too.
  const double nan = std::nan("");
  EXPECT_THROW(model.add({"X", "m", "sm", nan, 1.0}), AnalysisError);
  EXPECT_THROW(model.add({"X", "m", "sm", 0.5, nan}), AnalysisError);
  EXPECT_THROW(model.add({"X", "m", "sm", 0.5, std::numeric_limits<double>::infinity()}),
               AnalysisError);
  EXPECT_TRUE(model.entries().empty());
}

TEST(SafetyMechanismModel, FromTableParsesCoverageForms) {
  const auto table = parse_csv(
      "Component,Failure_Mode,Safety_Mechanism,Cov.,Cost(hrs)\n"
      "MCU,RAM Failure,ECC,99%,2.0\n"
      "CPU,Crash,watchdog,0.9,1.5\n"
      "CPU,Crash,lockstep,95,\n");  // bare 95 = 95%, empty cost = 0
  const auto model = SafetyMechanismModel::from_table(table);
  ASSERT_EQ(model.entries().size(), 3u);
  EXPECT_DOUBLE_EQ(model.entries()[0].coverage, 0.99);
  EXPECT_DOUBLE_EQ(model.entries()[1].coverage, 0.90);
  EXPECT_DOUBLE_EQ(model.entries()[2].coverage, 0.95);
  EXPECT_DOUBLE_EQ(model.entries()[2].cost_hours, 0.0);
}

TEST(SafetyMechanismModel, FromTableWithoutCostColumn) {
  const auto table = parse_csv(
      "Component,Failure_Mode,Safety_Mechanism,Cov.\nMCU,RAM Failure,ECC,99%\n");
  const auto model = SafetyMechanismModel::from_table(table);
  EXPECT_DOUBLE_EQ(model.entries()[0].cost_hours, 0.0);
}

TEST(SafetyMechanismModel, MissingColumnThrows) {
  EXPECT_THROW(SafetyMechanismModel::from_table(
                   parse_csv("Component,Failure_Mode,Safety_Mechanism\nMCU,RAM,ECC\n")),
               AnalysisError);
}

TEST(SafetyMechanismModel, ToTableRoundTrip) {
  SafetyMechanismModel model;
  model.add({"MCU", "RAM Failure", "ECC", 0.99, 2.0});
  const auto back = SafetyMechanismModel::from_table(model.to_table());
  ASSERT_EQ(back.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(back.entries()[0].coverage, 0.99);
  EXPECT_DOUBLE_EQ(back.entries()[0].cost_hours, 2.0);
}
