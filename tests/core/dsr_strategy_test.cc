// The paper's three techniques: wider error notification, timer-based route
// expiry (static + adaptive) and negative caches.
#include <gtest/gtest.h>

#include "src/core/dsr_agent.h"
#include "src/core/dsr_config.h"
#include "src/core/route_cache.h"
#include "tests/testing/dsr_fixture.h"

namespace manet::core {
namespace {

using manet::testing::DsrFixture;
using net::LinkId;
using net::NodeId;
using sim::Time;

TEST(VariantConfigTest, VariantsEnableTheRightTechniques) {
  const auto base = makeVariantConfig(Variant::kBase);
  EXPECT_FALSE(base.widerErrorNotification);
  EXPECT_EQ(base.expiry, ExpiryMode::kNone);
  EXPECT_FALSE(base.negativeCache);
  EXPECT_TRUE(base.replyFromCache);
  EXPECT_TRUE(base.salvaging);

  const auto wide = makeVariantConfig(Variant::kWiderError);
  EXPECT_TRUE(wide.widerErrorNotification);

  const auto stat = makeVariantConfig(Variant::kStaticExpiry,
                                      Time::seconds(25));
  EXPECT_EQ(stat.expiry, ExpiryMode::kStatic);
  EXPECT_EQ(stat.staticTimeout, Time::seconds(25));

  const auto adap = makeVariantConfig(Variant::kAdaptiveExpiry);
  EXPECT_EQ(adap.expiry, ExpiryMode::kAdaptive);

  const auto neg = makeVariantConfig(Variant::kNegCache);
  EXPECT_TRUE(neg.negativeCache);

  const auto all = makeVariantConfig(Variant::kAll);
  EXPECT_TRUE(all.widerErrorNotification);
  EXPECT_EQ(all.expiry, ExpiryMode::kAdaptive);
  EXPECT_TRUE(all.negativeCache);
}

TEST(VariantConfigTest, VariantNames) {
  EXPECT_STREQ(toString(Variant::kBase), "DSR");
  EXPECT_STREQ(toString(Variant::kAll), "ALL");
  EXPECT_STREQ(toString(Variant::kAdaptiveExpiry), "AdaptiveExpiry");
}

// ----------------------------------------------------------- wider errors

// Topology for wider-error tests: chain 0-1-2-3 with a bystander 5 near
// node 1 that snooped a route over the doomed link 2->3 and forwarded
// traffic over it earlier. Node 3 teleports away at t = 5 s.
struct WideErrorWorld {
  explicit WideErrorWorld(bool wider) : fx(makeCfg(wider)) {
    fx.addStatic({0, 0});                                      // 0
    fx.addStatic({200, 0});                                    // 1
    fx.addStatic({400, 0});                                    // 2
    fx.addTeleport({600, 0}, {5000, 5000}, Time::seconds(5));  // 3
  }
  static DsrConfig makeCfg(bool wider) {
    DsrConfig cfg;
    cfg.widerErrorNotification = wider;
    return cfg;
  }
  DsrFixture fx;
};

TEST(WiderErrorTest, BroadcastErrorCleansDetectorNeighborsCaches) {
  WideErrorWorld w(/*wider=*/true);
  auto& fx = w.fx;
  fx.dsr(0).sendData(3, 512, 0, 0);
  fx.run(Time::seconds(2));
  ASSERT_EQ(fx.metrics().dataDelivered, 1u);
  // Node 1 snooped/forwarded and caches the link 2->3.
  ASSERT_TRUE(fx.dsr(1).routeCache().containsLink(LinkId{2, 3}));

  fx.network->scheduler().scheduleAt(Time::seconds(6), [&] {
    fx.dsr(0).sendData(3, 512, 0, 1);
  });
  fx.run(Time::seconds(12));
  // The broadcast error from node 2 cleans node 1's cache even though the
  // unicast error would have only followed the path back to node 0.
  EXPECT_FALSE(fx.dsr(1).routeCache().containsLink(LinkId{2, 3}));
  EXPECT_FALSE(fx.dsr(0).routeCache().containsLink(LinkId{2, 3}));
}

TEST(WiderErrorTest, ErrorRebroadcastRequiresCacheAndForwardingHistory) {
  WideErrorWorld w(/*wider=*/true);
  auto& fx = w.fx;
  fx.dsr(0).sendData(3, 512, 0, 0);
  fx.run(Time::seconds(2));
  fx.network->scheduler().scheduleAt(Time::seconds(6), [&] {
    fx.dsr(0).sendData(3, 512, 0, 1);
  });
  fx.run(Time::seconds(12));
  // Nodes 1 (and possibly 0) forwarded over the broken link's route, so the
  // error propagates up the tree: at least one rebroadcast.
  EXPECT_GE(fx.metrics().rerrWideRebroadcasts, 1u);
}

// The genuine differentiator between base and wider errors in a network
// with perfect snooping: nodes *two hops away from the broken link's
// reverse path*. Topology: chain 0-1-2-3 (flow A), plus a spur 5-4-2 below
// the chain (flow B: node 5 -> 3 via 4 and 2). Node 4 hears node 2; node 5
// hears only node 4. When 2->3 breaks under flow A, base DSR's unicast
// error travels 2->1->0 and node 5 can never hear it; wider errors reach
// node 4 by broadcast, and node 4 — which forwarded flow B over the broken
// link — rebroadcasts, cleaning node 5.
struct SpurWorld {
  explicit SpurWorld(bool wider) : fx(WideErrorWorld::makeCfg(wider)) {
    fx.addStatic({0, 0});                                      // 0
    fx.addStatic({200, 0});                                    // 1
    fx.addStatic({400, 0});                                    // 2
    fx.addTeleport({600, 0}, {5000, 5000}, Time::seconds(5));  // 3
    fx.addStatic({400, -240});                                 // 4: hears 2
    fx.addStatic({400, -480});                                 // 5: hears 4 only
  }

  // Phase 1: establish flow B so node 4 forwards over 2->3 and node 5
  // caches a route containing it. Phase 2: flow A trips over the break.
  void runScenario() {
    fx.dsr(5).sendData(3, 512, 1, 0);
    fx.network->scheduler().scheduleAt(Time::seconds(2), [this] {
      fx.dsr(5).sendData(3, 512, 1, 1);
    });
    fx.network->scheduler().scheduleAt(Time::seconds(6), [this] {
      fx.dsr(0).sendData(3, 512, 0, 0);
    });
    fx.run(Time::seconds(12));
  }

  DsrFixture fx;
};

TEST(WiderErrorTest, BaseDsrLeavesTwoHopCachesStale) {
  SpurWorld w(/*wider=*/false);
  w.runScenario();
  ASSERT_GE(w.fx.metrics().linkBreaksDetected, 1u);
  // Node 5's stale route survives: the unicast error never came its way.
  EXPECT_TRUE(w.fx.dsr(5).routeCache().containsLink(LinkId{2, 3}));
}

TEST(WiderErrorTest, WideErrorRebroadcastCleansTwoHopCaches) {
  SpurWorld w(/*wider=*/true);
  w.runScenario();
  ASSERT_GE(w.fx.metrics().linkBreaksDetected, 1u);
  ASSERT_GE(w.fx.metrics().rerrWideRebroadcasts, 1u);
  EXPECT_FALSE(w.fx.dsr(5).routeCache().containsLink(LinkId{2, 3}));
}

// ------------------------------------------------------------- expiry

TEST(StaticExpiryTest, UnusedRoutesExpireAfterTimeout) {
  DsrConfig cfg = makeVariantConfig(Variant::kStaticExpiry, Time::seconds(5));
  DsrFixture fx(cfg);
  fx.addLine(3);
  fx.dsr(0).sendData(2, 512, 0, 0);
  fx.run(Time::seconds(2));
  ASSERT_TRUE(fx.dsr(0).routeCache().findRoute(2));
  // No further traffic: the route must be gone 5 s after last use.
  fx.run(Time::seconds(10));
  EXPECT_FALSE(fx.dsr(0).routeCache().findRoute(2));
  EXPECT_GE(fx.metrics().expiredLinks, 1u);
}

TEST(StaticExpiryTest, OngoingTrafficKeepsRoutesAlive) {
  DsrConfig cfg = makeVariantConfig(Variant::kStaticExpiry, Time::seconds(5));
  DsrFixture fx(cfg);
  fx.addLine(3);
  // Send every second for 20 s: intermediate node keeps refreshing usage.
  for (int i = 0; i < 20; ++i) {
    fx.network->scheduler().scheduleAt(Time::seconds(i) + Time::millis(10),
                                       [&fx, i] {
                                         fx.dsr(0).sendData(2, 512, 0,
                                                            static_cast<std::uint64_t>(i));
                                       });
  }
  fx.run(Time::seconds(21));
  EXPECT_EQ(fx.metrics().dataDelivered, 20u);
  // Forwarding node 1 still holds the route (constantly in use).
  EXPECT_TRUE(fx.dsr(1).routeCache().findRoute(2));
}

TEST(AdaptiveExpiryTest, TimeoutIsMaxAtStartThenAdapts) {
  DsrConfig cfg = makeVariantConfig(Variant::kAdaptiveExpiry);
  DsrFixture fx(cfg);
  fx.addLine(3);
  // Before any break, the timeout grows with time-since-start: effectively
  // no expiry in a stable network.
  fx.dsr(0).sendData(2, 512, 0, 0);
  fx.run(Time::seconds(30));
  EXPECT_TRUE(fx.dsr(0).routeCache().findRoute(2));
  EXPECT_GE(fx.dsr(0).currentExpiryTimeout(), Time::seconds(29));
}

// Link-use marks exist only for expiry: with it off no node records any,
// and with it on a pass purges the marks older than its cutoff.
const RouteCache& pathCache(DsrFixture& fx, NodeId id) {
  return dynamic_cast<const RouteCache&>(fx.dsr(id).routeCache());
}

TEST(ExpiryMarksTest, NoMarksWithoutExpiry) {
  DsrFixture fx;  // base config, no expiry
  fx.addLine(4);
  for (int i = 0; i < 5; ++i) {
    fx.network->scheduler().scheduleAt(
        Time::seconds(i) + Time::millis(10), [&fx, i] {
          fx.dsr(0).sendData(3, 512, 0, static_cast<std::uint64_t>(i));
          fx.dsr(3).sendData(0, 512, 1, static_cast<std::uint64_t>(i));
        });
  }
  fx.run(Time::seconds(6));
  ASSERT_EQ(fx.metrics().dataDelivered, 10u);
  for (NodeId id = 0; id < 4; ++id) {
    EXPECT_GT(pathCache(fx, id).size(), 0u) << "node " << id;
    EXPECT_EQ(pathCache(fx, id).markTableSize(), 0u) << "node " << id;
  }
}

TEST(ExpiryMarksTest, ExpiryPassPurgesMarksUnusedForTheTimeout) {
  DsrConfig cfg = makeVariantConfig(Variant::kStaticExpiry, Time::seconds(5));
  DsrFixture fx(cfg);
  fx.addLine(3);
  for (int i = 0; i < 3; ++i) {
    fx.network->scheduler().scheduleAt(
        Time::seconds(i) + Time::millis(10), [&fx, i] {
          fx.dsr(0).sendData(2, 512, 0, static_cast<std::uint64_t>(i));
        });
  }
  fx.run(Time::seconds(3));
  // Forwarder 1 marked at least the data route's two links.
  EXPECT_GE(pathCache(fx, 1).markTableSize(), 2u);
  // No traffic after t ≈ 2 s, so a pass after t ≈ 7 s drops every mark.
  fx.run(Time::seconds(8));
  EXPECT_EQ(pathCache(fx, 1).markTableSize(), 0u);
}

TEST(AdaptiveExpiryTest, NoExpiryConfigReportsInfiniteTimeout) {
  DsrFixture fx;  // base config, no expiry
  fx.addLine(2);
  EXPECT_EQ(fx.dsr(0).currentExpiryTimeout(), Time::max());
}

// ---------------------------------------------------------- negative cache

TEST(NegCacheStrategyTest, BrokenLinkIsQuarantined) {
  DsrConfig cfg = makeVariantConfig(Variant::kNegCache);
  DsrFixture fx(cfg);
  fx.addStatic({0, 0});
  fx.addTeleport({200, 0}, {5000, 5000}, Time::seconds(5));  // 1
  fx.addStatic({0, 200});                                    // 2 keeps 0 company
  fx.dsr(0).sendData(1, 512, 0, 0);
  fx.run(Time::seconds(2));
  ASSERT_EQ(fx.metrics().dataDelivered, 1u);

  fx.network->scheduler().scheduleAt(Time::seconds(6), [&] {
    fx.dsr(0).sendData(1, 512, 0, 1);
  });
  fx.run(Time::seconds(9));
  ASSERT_GE(fx.metrics().negCacheInsertions, 1u);
  EXPECT_TRUE(fx.dsr(0).negativeCache().contains(
      LinkId{0, 1}, fx.network->scheduler().now()));

  // Mutual exclusion: seeding a route over the quarantined link is refused.
  fx.dsr(0).seedRoute(std::vector<NodeId>{0, 1});
  EXPECT_FALSE(fx.dsr(0).routeCache().findRoute(1));
}

TEST(NegCacheStrategyTest, QuarantineExpiresAfterNt) {
  DsrConfig cfg = makeVariantConfig(Variant::kNegCache);
  cfg.negCacheTtl = sim::Time::seconds(10);
  DsrFixture fx(cfg);
  fx.addStatic({0, 0});
  fx.addTeleport({200, 0}, {5000, 5000}, Time::seconds(5));
  fx.dsr(0).sendData(1, 512, 0, 0);
  fx.run(Time::seconds(2));
  fx.network->scheduler().scheduleAt(Time::seconds(6), [&] {
    fx.dsr(0).sendData(1, 512, 0, 1);
  });
  fx.run(Time::seconds(30));
  // Well past Nt since the (last) break: the entry must be gone so the
  // link can be re-learned if it comes back.
  EXPECT_FALSE(fx.dsr(0).negativeCache().contains(
      LinkId{0, 1}, fx.network->scheduler().now()));
}

TEST(NegCacheStrategyTest, ForwarderDropsPacketsOverQuarantinedLink) {
  // 0-1-2-3 line. Node 2 has quarantined 2->3 (a break the source hasn't
  // heard about yet — the usual in-flight race). A packet sent over the
  // stale route must be dropped *at node 2* with a route error, instead of
  // burning the MAC retry budget against the dead link again.
  DsrConfig cfg = makeVariantConfig(Variant::kNegCache);
  DsrFixture fx(cfg);
  fx.addLine(4);
  fx.dsr(0).sendData(3, 512, 0, 0);
  fx.run(Time::seconds(2));
  ASSERT_EQ(fx.metrics().dataDelivered, 1u);

  // Simulate node 2 having just observed the break.
  fx.dsr(2).negativeCache().insert(net::LinkId{2, 3},
                                   fx.network->scheduler().now());
  fx.dsr(0).sendData(3, 512, 0, 1);
  fx.run(Time::seconds(4));
  EXPECT_GE(fx.metrics().dropNegativeCache, 1u);
  // The drop raised a route error that reached the source.
  EXPECT_FALSE(fx.dsr(0).routeCache().containsLink(net::LinkId{2, 3}));
}

TEST(NegCacheStrategyTest, PollutionPreventedAfterError) {
  // The "quick pollution" scenario: after the error cleans node 0's cache,
  // snooping a stale in-flight route must NOT re-insert the dead link.
  DsrConfig cfg = makeVariantConfig(Variant::kNegCache);
  DsrFixture fx(cfg);
  fx.addStatic({0, 0});
  fx.addTeleport({200, 0}, {5000, 5000}, Time::seconds(5));
  fx.dsr(0).sendData(1, 512, 0, 0);
  fx.run(Time::seconds(2));
  fx.network->scheduler().scheduleAt(Time::seconds(6), [&] {
    fx.dsr(0).sendData(1, 512, 0, 1);
  });
  fx.run(Time::seconds(9));
  ASSERT_TRUE(fx.dsr(0).negativeCache().contains(
      LinkId{0, 1}, fx.network->scheduler().now()));
  // Simulated stale in-flight information arriving right after the purge:
  fx.dsr(0).seedRoute(std::vector<NodeId>{0, 1});
  EXPECT_FALSE(fx.dsr(0).routeCache().containsLink(LinkId{0, 1}));
}

TEST(NegCacheStrategyTest, WithoutNegCachePollutionHappens) {
  // Control: base DSR accepts the stale route right back.
  DsrFixture fx;
  fx.addStatic({0, 0});
  fx.addTeleport({200, 0}, {5000, 5000}, Time::seconds(5));
  fx.dsr(0).sendData(1, 512, 0, 0);
  fx.run(Time::seconds(2));
  fx.network->scheduler().scheduleAt(Time::seconds(6), [&] {
    fx.dsr(0).sendData(1, 512, 0, 1);
  });
  fx.run(Time::seconds(9));
  fx.dsr(0).seedRoute(std::vector<NodeId>{0, 1});
  EXPECT_TRUE(fx.dsr(0).routeCache().containsLink(LinkId{0, 1}));
}

}  // namespace
}  // namespace manet::core
