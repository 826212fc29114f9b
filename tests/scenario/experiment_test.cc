#include "src/scenario/experiment.h"

#include <gtest/gtest.h>

namespace manet::scenario {
namespace {

TEST(ExperimentTest, PaperScenarioMatchesSection41) {
  const BenchScale s = benchScaleNamed("quick");
  const ScenarioConfig cfg = paperScenario(s);
  EXPECT_EQ(cfg.field.x, 2200.0);
  EXPECT_EQ(cfg.field.y, 600.0);
  EXPECT_EQ(cfg.maxSpeed, 20.0);
  EXPECT_EQ(cfg.payloadBytes, 512u);
  EXPECT_EQ(cfg.packetsPerSecond, 3.0);
  EXPECT_EQ(cfg.numNodes, s.numNodes);
  EXPECT_EQ(cfg.numFlows, s.numFlows);
  EXPECT_EQ(cfg.duration, s.duration);
}

TEST(ExperimentTest, FullTierIsPaperScale) {
  const BenchScale full = benchScaleNamed("full");
  EXPECT_TRUE(full.full);
  EXPECT_EQ(full.numNodes, 100);
  EXPECT_EQ(full.duration, sim::Time::seconds(500));
  EXPECT_EQ(full.replications, 5);

  const BenchScale quick = benchScaleNamed("quick");
  EXPECT_FALSE(quick.full);
  EXPECT_EQ(quick.numNodes, 100);
  EXPECT_LT(quick.duration, full.duration);
}

TEST(ExperimentTest, ReplicationVariesMobilitySeedOnly) {
  ScenarioConfig cfg;
  cfg.numNodes = 10;
  cfg.field = {500, 300};
  cfg.numFlows = 2;
  cfg.duration = sim::Time::seconds(10);
  const AggregateResult agg = runReplicated(cfg, 3);
  ASSERT_EQ(agg.runs.size(), 3u);
  EXPECT_EQ(agg.deliveryFraction.count(), 3u);
  EXPECT_EQ(agg.normalizedOverhead.count(), 3u);
}

}  // namespace
}  // namespace manet::scenario
