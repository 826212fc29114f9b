#include "src/metrics/metrics.h"

#include <gtest/gtest.h>

#include "src/metrics/oracle.h"

namespace manet::metrics {
namespace {

using sim::Time;

TEST(MetricsTest, DerivedMetricsFromCounters) {
  Metrics m;
  m.dataOriginated = 200;
  m.dataDelivered = 150;
  m.delaySumSec = 30.0;
  m.bytesDelivered = 150 * 512;
  m.rreqTx = 100;
  m.rrepTx = 20;
  m.rerrTx = 5;
  m.rtsTx = 400;
  m.ctsTx = 390;
  m.ackTx = 380;
  EXPECT_DOUBLE_EQ(m.packetDeliveryFraction(), 0.75);
  EXPECT_DOUBLE_EQ(m.avgDelaySec(), 0.2);
  EXPECT_EQ(m.overheadTx(), 1295u);
  EXPECT_DOUBLE_EQ(m.normalizedOverhead(), 1295.0 / 150.0);
  EXPECT_DOUBLE_EQ(m.throughputKbps(Time::seconds(100)),
                   150.0 * 512.0 * 8.0 / 1000.0 / 100.0);
}

TEST(MetricsTest, CacheQualityPercentages) {
  Metrics m;
  m.repliesReceived = 50;
  m.goodRepliesReceived = 30;
  m.cacheHits = 200;
  m.invalidCacheHits = 40;
  EXPECT_DOUBLE_EQ(m.goodReplyPct(), 60.0);
  EXPECT_DOUBLE_EQ(m.invalidCacheHitPct(), 20.0);
}

TEST(MetricsTest, ZeroDenominatorsAreSafe) {
  Metrics m;
  EXPECT_EQ(m.packetDeliveryFraction(), 0.0);
  EXPECT_EQ(m.avgDelaySec(), 0.0);
  EXPECT_EQ(m.normalizedOverhead(), 0.0);
  EXPECT_EQ(m.goodReplyPct(), 0.0);
  EXPECT_EQ(m.invalidCacheHitPct(), 0.0);
  EXPECT_EQ(m.throughputKbps(Time::zero()), 0.0);
}

TEST(MetricsTest, TotalDroppedSumsAllDropReasons) {
  Metrics m;
  EXPECT_EQ(m.totalDropped(), 0u);
  m.dropSendBufferTimeout = 1;
  m.dropSendBufferOverflow = 2;
  m.dropIfqFull = 4;
  m.dropLinkFailNoSalvage = 8;
  m.dropNegativeCache = 16;
  m.dropTtlExpired = 32;
  m.dropMacDuplicate = 64;
  m.dropNodeDown = 128;
  EXPECT_EQ(m.totalDropped(), 255u);
}

TEST(MetricsTest, DerivedMetricsZeroDeliveredNonzeroOriginated) {
  Metrics m;
  m.dataOriginated = 50;
  m.rreqTx = 10;
  EXPECT_DOUBLE_EQ(m.packetDeliveryFraction(), 0.0);
  EXPECT_EQ(m.avgDelaySec(), 0.0);
  // No delivered packets: normalized overhead is defined as 0, not inf.
  EXPECT_EQ(m.normalizedOverhead(), 0.0);
}

TEST(MetricsTest, DerivedMetricsZeroRepliesNonzeroHits) {
  Metrics m;
  m.cacheHits = 10;
  EXPECT_DOUBLE_EQ(m.invalidCacheHitPct(), 0.0);
  EXPECT_EQ(m.goodReplyPct(), 0.0);
}

TEST(LinkOracleTest, GeometricLinkValidity) {
  // Node 0 at origin, node 1 within range, node 2 out of range.
  auto positions = [](net::NodeId id, Time) -> Vec2 {
    switch (id) {
      case 0:
        return {0, 0};
      case 1:
        return {200, 0};
      default:
        return {500, 0};
    }
  };
  LinkOracle oracle(positions, 250.0);
  EXPECT_TRUE(oracle.linkValid(0, 1, Time::zero()));
  EXPECT_FALSE(oracle.linkValid(0, 2, Time::zero()));
  EXPECT_FALSE(oracle.linkValid(1, 2, Time::zero()));  // 300 m apart
}

TEST(LinkOracleTest, RouteValidityChecksEveryHop) {
  auto positions = [](net::NodeId id, Time) -> Vec2 {
    return {static_cast<double>(id) * 200.0, 0.0};
  };
  LinkOracle oracle(positions, 250.0);
  EXPECT_TRUE(
      oracle.routeValid(std::vector<net::NodeId>{0, 1, 2, 3}, Time::zero()));
  EXPECT_FALSE(
      oracle.routeValid(std::vector<net::NodeId>{0, 2, 3}, Time::zero()));
  EXPECT_TRUE(oracle.routeValid(std::vector<net::NodeId>{5}, Time::zero()));
  EXPECT_TRUE(oracle.routeValid(std::vector<net::NodeId>{}, Time::zero()));
}

TEST(LinkOracleTest, TimeDependentPositions) {
  // Node 1 moves away over time.
  auto positions = [](net::NodeId id, Time t) -> Vec2 {
    if (id == 0) return {0, 0};
    return {t.toSeconds() * 10.0, 0.0};
  };
  LinkOracle oracle(positions, 250.0);
  EXPECT_TRUE(oracle.linkValid(0, 1, Time::seconds(10)));   // 100 m
  EXPECT_FALSE(oracle.linkValid(0, 1, Time::seconds(30)));  // 300 m
}

}  // namespace
}  // namespace manet::metrics
