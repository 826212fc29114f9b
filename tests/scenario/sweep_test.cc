#include "src/scenario/sweep.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/scenario/experiment.h"

namespace manet::scenario {
namespace {

ScenarioConfig tinyConfig() {
  ScenarioConfig cfg;
  cfg.numNodes = 10;
  cfg.field = {500, 300};
  cfg.numFlows = 2;
  cfg.duration = sim::Time::seconds(5);
  cfg.telemetry = {};  // ignore MANET_* env for deterministic tests
  return cfg;
}

TEST(SweepTest, SanitizeLabelReplacesUnsafeCharacters) {
  EXPECT_EQ(sanitizeLabel("timeout 0.25s"), "timeout_0.25s");
  EXPECT_EQ(sanitizeLabel("a/b\\c:d"), "a_b_c_d");
  EXPECT_EQ(sanitizeLabel("Safe_1.2-x"), "Safe_1.2-x");
  EXPECT_EQ(sanitizeLabel(""), "");
}

TEST(SweepTest, PlanWithNoAxesIsASinglePoint) {
  ExperimentPlan plan("solo", tinyConfig());
  EXPECT_EQ(plan.pointCount(), 1u);
  const std::vector<SweepPoint> pts = plan.points();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].index, 0u);
  EXPECT_EQ(pts[0].label, "solo");
  EXPECT_TRUE(pts[0].coordinates.empty());
  EXPECT_EQ(pts[0].config.numNodes, 10);
}

TEST(SweepTest, ExpansionIsRowMajorFirstAxisSlowest) {
  ExperimentPlan plan("grid", tinyConfig());
  plan.axis("a", {AxisValue{"a1", {}}, AxisValue{"a2", {}}})
      .axis("b", {AxisValue{"b1", {}}, AxisValue{"b2", {}},
                  AxisValue{"b3", {}}});
  EXPECT_EQ(plan.pointCount(), 6u);
  const std::vector<SweepPoint> pts = plan.points();
  ASSERT_EQ(pts.size(), 6u);
  const std::vector<std::vector<std::string>> want = {
      {"a1", "b1"}, {"a1", "b2"}, {"a1", "b3"},
      {"a2", "b1"}, {"a2", "b2"}, {"a2", "b3"}};
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].index, i);
    EXPECT_EQ(pts[i].coordinates, want[i]) << "point " << i;
  }
  EXPECT_EQ(pts[0].label, "grid_a=a1_b=b1");
  EXPECT_EQ(pts[5].label, "grid_a=a2_b=b3");
}

TEST(SweepTest, MutatorsApplyInAxisDeclarationOrder) {
  ExperimentPlan plan("order", tinyConfig());
  plan.axis("set", {AxisValue{"five", [](ScenarioConfig& c) {
                      c.maxSpeed = 5.0;
                    }}})
      .axis("scale", {AxisValue{"x2", [](ScenarioConfig& c) {
                        c.maxSpeed *= 2.0;
                      }}});
  const std::vector<SweepPoint> pts = plan.points();
  ASSERT_EQ(pts.size(), 1u);
  // Second axis sees the first axis's mutation: 5 * 2, not default * 2.
  EXPECT_EQ(pts[0].config.maxSpeed, 10.0);
}

TEST(SweepTest, NumericAxisLabelsUseRequestedPrecision) {
  ExperimentPlan plan("num", tinyConfig());
  plan.axis(
      "timeout_s", {0.25, 5.0},
      [](ScenarioConfig&, double) {}, /*labelPrecision=*/2);
  const std::vector<SweepPoint> pts = plan.points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].coordinates[0], "0.25");
  EXPECT_EQ(pts[1].coordinates[0], "5.00");
  EXPECT_EQ(pts[0].label, "num_timeout_s=0.25");
}

TEST(SweepTest, NumericAxisPassesValueToMutator) {
  ExperimentPlan plan("num", tinyConfig());
  plan.axis(
      "speed", {2.0, 8.0},
      [](ScenarioConfig& c, double v) { c.maxSpeed = v; },
      /*labelPrecision=*/0);
  const std::vector<SweepPoint> pts = plan.points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].config.maxSpeed, 2.0);
  EXPECT_EQ(pts[1].config.maxSpeed, 8.0);
}

TEST(SweepTest, LabelsAreSanitizedPerComponent) {
  ExperimentPlan plan("my plan", tinyConfig());
  plan.axis("pause s", {AxisValue{"0 (always moving)", {}}});
  const std::vector<SweepPoint> pts = plan.points();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].label, "my_plan_pause_s=0__always_moving_");
}

// Tables read coordinates by position: coordinates[i] is the value label
// on plan.axes()[i].
TEST(SweepTest, CoordinatesFollowAxisOrder) {
  ExperimentPlan plan("coord", tinyConfig());
  plan.axis("a", {AxisValue{"a1", {}}})
      .axis("b", {AxisValue{"b1", {}}});
  const std::vector<SweepPoint> pts = plan.points();
  ASSERT_EQ(pts.size(), 1u);
  ASSERT_EQ(plan.axes().size(), 2u);
  EXPECT_EQ(plan.axes()[0].name, "a");
  EXPECT_EQ(plan.axes()[1].name, "b");
  EXPECT_EQ(pts[0].coordinates, (std::vector<std::string>{"a1", "b1"}));
}

TEST(SweepTest, FilterKeepsOnlyMatchingValue) {
  ExperimentPlan plan("filt", tinyConfig());
  plan.axis("a", {AxisValue{"a1", {}}, AxisValue{"a2", {}}})
      .axis("b", {AxisValue{"b1", {}}, AxisValue{"b2", {}}});
  plan.filter("a", "a2");
  EXPECT_EQ(plan.pointCount(), 2u);
  const std::vector<SweepPoint> pts = plan.points();
  EXPECT_EQ(pts[0].coordinates[0], "a2");
  EXPECT_EQ(pts[1].coordinates[0], "a2");
}

TEST(SweepTest, FilterUnknownAxisIsAHardError) {
  ExperimentPlan plan("filt", tinyConfig());
  plan.axis("a", {AxisValue{"a1", {}}});
  EXPECT_THROW(plan.filter("typo", "a1"), std::invalid_argument);
}

TEST(SweepTest, FilterUnmatchedValueIsAHardError) {
  ExperimentPlan plan("filt", tinyConfig());
  plan.axis("a", {AxisValue{"a1", {}}});
  EXPECT_THROW(plan.filter("a", "a9"), std::invalid_argument);
}

TEST(SweepTest, ValidateRejectsEmptyAxis) {
  ExperimentPlan plan("bad", tinyConfig());
  plan.axis("a", std::vector<AxisValue>{});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  EXPECT_THROW(plan.points(), std::invalid_argument);
}

TEST(SweepTest, ValidateRejectsDuplicateValueLabels) {
  ExperimentPlan plan("bad", tinyConfig());
  plan.axis("a", {AxisValue{"same", {}}, AxisValue{"same", {}}});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(SweepTest, ValidateRejectsSanitizedLabelCollisions) {
  // "a b" and "a_b" are distinct raw labels but collide after
  // sanitization — exporting both would clobber one point's artifact.
  ExperimentPlan plan("bad", tinyConfig());
  plan.axis("a", {AxisValue{"a b", {}}, AxisValue{"a_b", {}}});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(SweepTest, ValidateRejectsEmptyPlanName) {
  ExperimentPlan plan("", tinyConfig());
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace manet::scenario
