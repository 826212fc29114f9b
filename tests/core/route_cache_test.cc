#include "src/core/route_cache.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/sim/rng.h"

namespace manet::core {
namespace {

using net::LinkId;
using net::NodeId;
using sim::Time;

const std::vector<NodeId> kPath{0, 1, 2, 3};

TEST(RouteCacheTest, InsertAndFind) {
  RouteCache c(0, 16);
  EXPECT_TRUE(c.insert(kPath, Time::zero()));
  auto r = c.findRoute(3);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, kPath);
}

TEST(RouteCacheTest, PrefixServesIntermediateDestinations) {
  RouteCache c(0, 16);
  c.insert(kPath, Time::zero());
  auto r = c.findRoute(2);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (std::vector<NodeId>{0, 1, 2}));
}

TEST(RouteCacheTest, RejectsBadPaths) {
  RouteCache c(0, 16);
  EXPECT_FALSE(c.insert(std::vector<NodeId>{0}, Time::zero()));       // too short
  EXPECT_FALSE(c.insert(std::vector<NodeId>{1, 2}, Time::zero()));    // wrong owner
  EXPECT_FALSE(c.insert(std::vector<NodeId>{0, 1, 0}, Time::zero())); // loop
  EXPECT_EQ(c.size(), 0u);
}

TEST(RouteCacheTest, ShortestRouteWins) {
  RouteCache c(0, 16);
  c.insert(std::vector<NodeId>{0, 1, 2, 9}, Time::zero());
  c.insert(std::vector<NodeId>{0, 5, 9}, Time::zero());
  auto r = c.findRoute(9);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->size(), 3u);
}

TEST(RouteCacheTest, NoRouteToUnknownNode) {
  RouteCache c(0, 16);
  c.insert(kPath, Time::zero());
  EXPECT_FALSE(c.findRoute(42));
  EXPECT_FALSE(c.findRoute(0));  // never route to self
}

TEST(RouteCacheTest, DuplicateInsertKeepsOriginalEntryTime) {
  RouteCache c(0, 16);
  c.insert(kPath, Time::seconds(1));
  c.insert(kPath, Time::seconds(5));
  EXPECT_EQ(c.size(), 1u);
  // addedAt stays at first-learn time: route-lifetime samples for the
  // adaptive timeout measure age since the route was first entered, not
  // since the last of the per-packet re-insertions by forwarders.
  EXPECT_EQ(c.paths()[0].addedAt, Time::seconds(1));
}

TEST(RouteCacheTest, FifoEvictionAtCapacity) {
  RouteCache c(0, 2);
  c.insert(std::vector<NodeId>{0, 1}, Time::zero());
  c.insert(std::vector<NodeId>{0, 2}, Time::zero());
  c.insert(std::vector<NodeId>{0, 3}, Time::zero());
  EXPECT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.findRoute(1));  // oldest evicted
  EXPECT_TRUE(c.findRoute(2));
  EXPECT_TRUE(c.findRoute(3));
}

// Hops of each stored path, oldest first.
std::vector<std::vector<NodeId>> storedHops(const RouteCache& c) {
  std::vector<std::vector<NodeId>> out;
  for (const auto& p : c.paths()) out.push_back(p.hops);
  return out;
}

// A truncation can leave two equal stored paths. Each keeps its own entry
// in the path index, so evicting the older one must leave the newer one
// findable: re-inserting the path is a hit that changes nothing.
TEST(RouteCacheTest, EvictingOneOfTwoEqualPathsKeepsTheOtherCached) {
  RouteCache c(0, 4);
  c.insert(std::vector<NodeId>{0, 1, 2, 3}, Time::seconds(1));
  c.insert(std::vector<NodeId>{0, 1, 2, 4}, Time::seconds(2));
  c.removeLink(LinkId{1, 2}, Time::seconds(3));  // both become {0, 1}
  c.insert(std::vector<NodeId>{0, 5}, Time::seconds(4));
  c.insert(std::vector<NodeId>{0, 6}, Time::seconds(5));
  ASSERT_EQ(c.size(), 4u);
  c.insert(std::vector<NodeId>{0, 7}, Time::seconds(6));  // evicts a {0, 1}
  const std::vector<std::vector<NodeId>> want{{0, 1}, {0, 5}, {0, 6}, {0, 7}};
  ASSERT_EQ(storedHops(c), want);

  EXPECT_TRUE(c.insert(std::vector<NodeId>{0, 1}, Time::seconds(7)));
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(storedHops(c), want);  // a hit: nothing evicted, nothing added
  EXPECT_EQ(c.paths()[0].addedAt, Time::seconds(2));
}

// clear() empties the path index with the ring: nothing cleared is still
// reported as cached.
TEST(RouteCacheTest, InsertAfterClearStoresThePathAgain) {
  RouteCache c(0, 2);
  c.insert(kPath, Time::seconds(1));
  c.insert(std::vector<NodeId>{0, 5}, Time::seconds(1));
  c.insert(std::vector<NodeId>{0, 6}, Time::seconds(1));  // wraps the ring
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.insert(std::vector<NodeId>{0, 6}, Time::seconds(2)));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.insert(std::vector<NodeId>{0, 6}, Time::seconds(3)));
  EXPECT_TRUE(c.insert(kPath, Time::seconds(3)));
  EXPECT_EQ(storedHops(c),
            (std::vector<std::vector<NodeId>>{{0, 6}, kPath}));
  EXPECT_EQ(c.paths()[0].addedAt, Time::seconds(2));
}

TEST(RouteCacheTest, CapacityBeyondThePathIndexIsRejected) {
  EXPECT_NO_THROW(RouteCache(0, RouteCache::kMaxCapacity));
  EXPECT_THROW(RouteCache(0, RouteCache::kMaxCapacity + 1),
               std::invalid_argument);
}

TEST(RouteCacheTest, RemoveLinkTruncatesAtBreak) {
  RouteCache c(0, 16);
  c.insert(kPath, Time::seconds(2));
  const auto affected = c.removeLink(LinkId{1, 2}, Time::seconds(10));
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(affected[0], Time::seconds(2));  // lifetime sample source
  EXPECT_FALSE(c.findRoute(2));
  EXPECT_FALSE(c.findRoute(3));
  EXPECT_TRUE(c.findRoute(1));  // prefix before the break survives
}

TEST(RouteCacheTest, RemoveLinkDirectional) {
  RouteCache c(0, 16);
  c.insert(kPath, Time::zero());
  c.removeLink(LinkId{2, 1}, Time::zero());  // reverse direction: no-op
  EXPECT_TRUE(c.findRoute(3));
}

TEST(RouteCacheTest, RemoveLinkDropsUnroutablePaths) {
  RouteCache c(0, 16);
  c.insert(std::vector<NodeId>{0, 1, 2}, Time::zero());
  c.removeLink(LinkId{0, 1}, Time::zero());
  EXPECT_EQ(c.size(), 0u);
}

TEST(RouteCacheTest, ContainsLink) {
  RouteCache c(0, 16);
  c.insert(kPath, Time::zero());
  EXPECT_TRUE(c.containsLink(LinkId{2, 3}));
  EXPECT_FALSE(c.containsLink(LinkId{3, 2}));
  EXPECT_FALSE(c.containsLink(LinkId{0, 2}));
}

TEST(RouteCacheTest, ExpiryPrunesUnusedLinks) {
  RouteCache c(0, 16);
  c.insert(kPath, Time::seconds(0));
  // Keep link 0->1 fresh; let the rest go stale.
  c.markLinksUsed(std::vector<NodeId>{0, 1}, Time::seconds(20));
  const std::size_t pruned = c.expireUnusedSince(Time::seconds(10));
  EXPECT_EQ(pruned, 2u);  // links 1->2 and 2->3
  EXPECT_TRUE(c.findRoute(1));
  EXPECT_FALSE(c.findRoute(3));
}

TEST(RouteCacheTest, ExpiryKeepsRecentlyInsertedRoutes) {
  RouteCache c(0, 16);
  c.insert(kPath, Time::seconds(100));
  EXPECT_EQ(c.expireUnusedSince(Time::seconds(50)), 0u);
  EXPECT_TRUE(c.findRoute(3));
}

TEST(RouteCacheTest, MarkLinksUsedRefreshesSharedLinks) {
  RouteCache c(0, 16);
  c.insert(std::vector<NodeId>{0, 1, 2, 3}, Time::seconds(0));
  c.insert(std::vector<NodeId>{0, 1, 4}, Time::seconds(0));
  // Refresh only 0->1 (shared by both paths).
  c.markLinksUsed(std::vector<NodeId>{0, 1}, Time::seconds(30));
  c.expireUnusedSince(Time::seconds(10));
  // Both paths keep their fresh first link, lose the stale tails.
  EXPECT_TRUE(c.findRoute(1));
  EXPECT_FALSE(c.findRoute(3));
  EXPECT_FALSE(c.findRoute(4));
}

TEST(RouteCacheTest, ClearEmptiesEverything) {
  RouteCache c(0, 16);
  c.insert(kPath, Time::zero());
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.findRoute(3));
}

// Property test: across random operation sequences, cached routes stay
// loop-free, start at the owner, and respect capacity.
class RouteCachePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RouteCachePropertyTest, InvariantsHoldUnderRandomOps) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  RouteCache c(0, 8);
  for (int step = 0; step < 500; ++step) {
    const auto now = Time::millis(step * 100);
    const int op = static_cast<int>(rng.uniformInt(0, 3));
    if (op == 0) {
      // Random path of random length starting at owner.
      std::vector<NodeId> path{0};
      const int len = static_cast<int>(rng.uniformInt(1, 6));
      for (int i = 0; i < len; ++i) {
        path.push_back(static_cast<NodeId>(rng.uniformInt(1, 12)));
      }
      c.insert(path, now);
    } else if (op == 1) {
      c.removeLink(LinkId{static_cast<NodeId>(rng.uniformInt(0, 12)),
                          static_cast<NodeId>(rng.uniformInt(0, 12))},
                   now);
    } else if (op == 2) {
      c.expireUnusedSince(now - Time::seconds(5));
    } else {
      const auto dest = static_cast<NodeId>(rng.uniformInt(1, 12));
      if (auto r = c.findRoute(dest)) {
        ASSERT_GE(r->size(), 2u);
        ASSERT_EQ(r->front(), 0u);
        ASSERT_EQ(r->back(), dest);
        ASSERT_FALSE(net::routeHasDuplicates(*r));
      }
    }
    ASSERT_LE(c.size(), 8u);
    for (const auto& p : c.paths()) {
      ASSERT_GE(p.hops.size(), 2u);
      ASSERT_EQ(p.hops.front(), 0u);
      ASSERT_FALSE(net::routeHasDuplicates(p.hops));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteCachePropertyTest,
                         ::testing::Range(1, 9));

// -------------------------------------------------------------- provenance

TEST(RouteCacheTest, InsertMintsProvenanceAndLookupCarriesIt) {
  net::RouteProvenance::resetIdCounter();
  RouteCache c(0, 16);
  ASSERT_TRUE(
      c.insert(kPath, Time::seconds(2), net::RouteOrigin::kTargetReply));
  const auto hit = c.lookup(3);
  ASSERT_TRUE(hit);
  EXPECT_NE(hit->prov.id, 0u);
  EXPECT_EQ(hit->prov.origin, net::RouteOrigin::kTargetReply);
  EXPECT_EQ(hit->prov.insertedBy, 0u);
  EXPECT_EQ(hit->prov.bornAt, Time::seconds(2));
  EXPECT_EQ(hit->prov.hopsAtInsert, kPath.size());
}

TEST(RouteCacheTest, ReinsertKeepsOriginalProvenance) {
  net::RouteProvenance::resetIdCounter();
  RouteCache c(0, 16);
  ASSERT_TRUE(c.insert(kPath, Time::seconds(1), net::RouteOrigin::kSnooped));
  const auto first = c.lookup(3);
  ASSERT_TRUE(first);
  // Re-learning the same path later, via a different mechanism, must not
  // re-stamp the entry: lifetime attribution measures age since first
  // learned, by the original origin.
  ASSERT_TRUE(
      c.insert(kPath, Time::seconds(9), net::RouteOrigin::kTargetReply));
  const auto again = c.lookup(3);
  ASSERT_TRUE(again);
  EXPECT_EQ(again->prov.id, first->prov.id);
  EXPECT_EQ(again->prov.origin, net::RouteOrigin::kSnooped);
  EXPECT_EQ(again->prov.bornAt, Time::seconds(1));
}

}  // namespace
}  // namespace manet::core
