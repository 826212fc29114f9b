// NeighborIndex contract: the grid must be an exact, order-preserving
// drop-in for the full scan — same radios visited, same distances, same
// (attach) order — with static and moving nodes, under lazy refreshes.
#include "src/phy/neighbor_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/mobility/mobility_model.h"
#include "src/mobility/waypoint.h"
#include "src/phy/channel.h"
#include "src/phy/radio.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"

namespace manet::phy {
namespace {

using mobility::StaticMobility;
using sim::Scheduler;
using sim::Time;

/// Constant-velocity trajectory for staleness tests. Its pieces are single
/// instants, so the grid re-reads it on every query.
class LinearMobility final : public mobility::MobilityModel {
 public:
  LinearMobility(Vec2 start, Vec2 velocity) : start_(start), v_(velocity) {}
  mobility::Segment segmentAt(Time t) const override {
    const double s = t.toSeconds();
    return mobility::Segment::fixed({start_.x + v_.x * s, start_.y + v_.y * s},
                                    t, t + Time::nanos(1));
  }

 private:
  Vec2 start_;
  Vec2 v_;
};

struct Fixture {
  Scheduler sched;
  PhyConfig cfg;  // radios need a channel; its own index is not under test
  Channel channel{sched, cfg};
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobs;
  std::vector<std::unique_ptr<Radio>> radios;

  Radio& addRadio(net::NodeId id, std::unique_ptr<mobility::MobilityModel> m) {
    mobs.push_back(std::move(m));
    radios.push_back(
        std::make_unique<Radio>(id, *mobs.back(), channel, sched));
    return *radios.back();
  }

  /// Attach every radio to `index` in id order (as Network does).
  void attachAll(NeighborIndex& index) {
    for (auto& r : radios) index.attach(r.get());
  }
};

/// (id, distance) visit log of one forEachInRange call.
std::vector<std::pair<net::NodeId, double>> query(const NeighborIndex& index,
                                                  const Vec2& pos,
                                                  double range, Time now,
                                                  const Radio* exclude) {
  std::vector<std::pair<net::NodeId, double>> out;
  index.forEachInRange(pos, range, now, exclude,
                       [&](Radio& r, double d) { out.emplace_back(r.id(), d); });
  return out;
}

TEST(NeighborIndexTest, GridMatchesScanOnRandomStaticTopologies) {
  struct Field {
    int n;
    double w, h;
  };
  // Five fields at the paper's 2200x600 m density, then a sparse one where
  // the grid's 3x3 candidate block covers a small fraction of the area.
  const Field fields[] = {{40, 2200.0, 600.0}, {40, 2200.0, 600.0},
                          {40, 2200.0, 600.0}, {40, 2200.0, 600.0},
                          {40, 2200.0, 600.0}, {60, 3000.0, 3000.0}};
  sim::Rng rng(1234);
  for (int topo = 0; topo < 6; ++topo) {
    const Field& f = fields[topo];
    Fixture fx;
    const int n = f.n;
    for (int i = 0; i < n; ++i) {
      fx.addRadio(static_cast<net::NodeId>(i),
                  std::make_unique<StaticMobility>(Vec2{
                      rng.uniform(0.0, f.w), rng.uniform(0.0, f.h)}));
    }
    ScanNeighborIndex scan(fx.sched);
    GridNeighborIndex grid(fx.sched, 250.0, 20.0, Time::seconds(1));
    fx.attachAll(scan);
    fx.attachAll(grid);
    std::size_t scanExamined = 0;
    std::size_t gridExamined = 0;
    std::size_t inRange = 0;
    for (int q = 0; q < 50; ++q) {
      const Vec2 pos{rng.uniform(-100.0, f.w + 100.0),
                     rng.uniform(-100.0, f.h + 100.0)};
      const Radio* exclude =
          q % 3 == 0 ? fx.radios[static_cast<std::size_t>(q) % n].get()
                     : nullptr;
      const auto a = query(scan, pos, 250.0, Time::zero(), exclude);
      const auto b = query(grid, pos, 250.0, Time::zero(), exclude);
      ASSERT_EQ(a, b) << "topology " << topo << " query " << q;
      // Scan examines every radio but the excluded sender; the grid may
      // examine fewer candidates, never more.
      EXPECT_EQ(scan.lastExamined(),
                static_cast<std::size_t>(n) - (exclude != nullptr ? 1 : 0));
      EXPECT_LE(grid.lastExamined(), scan.lastExamined());
      scanExamined += scan.lastExamined();
      gridExamined += grid.lastExamined();
      inRange += b.size();
    }
    // The grid's candidates are a superset of the in-range set.
    EXPECT_GE(gridExamined, inRange) << "topology " << topo;
    if (topo == 5) {
      // Sparse field: the grid examines far fewer radios than the scan.
      EXPECT_LT(gridExamined * 2, scanExamined);
    }
  }
}

TEST(NeighborIndexTest, GridStaysExactWhileNodesMove) {
  Fixture fx;
  // Nodes sweeping in both directions at the speed bound, crossing cell
  // boundaries and each other's range repeatedly.
  const double kSpeed = 20.0;
  for (int i = 0; i < 20; ++i) {
    fx.addRadio(static_cast<net::NodeId>(i),
                std::make_unique<LinearMobility>(
                    Vec2{50.0 * i, 10.0 * i},
                    Vec2{i % 2 == 0 ? kSpeed : -kSpeed, 0.0}));
  }
  ScanNeighborIndex scan(fx.sched);
  GridNeighborIndex grid(fx.sched, 250.0, kSpeed, Time::seconds(1));
  fx.attachAll(scan);
  fx.attachAll(grid);
  for (int step = 1; step <= 40; ++step) {
    fx.sched.runUntil(Time::millis(250 * step));  // advances sim time
    const Time now = fx.sched.now();
    for (const auto& r : fx.radios) {
      const Vec2 pos = r->mobility().positionAt(now);
      ASSERT_EQ(query(scan, pos, 250.0, now, r.get()),
                query(grid, pos, 250.0, now, r.get()))
          << "step " << step << " around node " << r->id();
    }
  }
  // 10 s of queries against a 1 s refresh period: the lazy refresh must
  // have actually run (more than the initial bucketing, roughly once per
  // period).
  EXPECT_GE(grid.refreshCount(), 9u);
  EXPECT_LE(grid.refreshCount(), 42u);
}

TEST(NeighborIndexTest, GridMatchesScanOnRandomWaypointRadios) {
  // The paper's pause-0 cell: 100 radios on 2200x600 m at up to 20 m/s.
  Fixture fx;
  mobility::RandomWaypoint::Params p;
  p.field = {2200.0, 600.0};
  p.maxSpeed = 20.0;
  p.pause = Time::zero();
  p.horizon = Time::seconds(60);
  sim::Rng seeds(2024);
  std::vector<const mobility::RandomWaypoint*> wps;
  for (int i = 0; i < 100; ++i) {
    auto wp = std::make_unique<mobility::RandomWaypoint>(
        sim::Rng(static_cast<std::uint64_t>(seeds.uniformInt(1, 1'000'000'000))),
        p);
    wps.push_back(wp.get());
    fx.addRadio(static_cast<net::NodeId>(i), std::move(wp));
  }
  ScanNeighborIndex scan(fx.sched);
  GridNeighborIndex grid(fx.sched, 250.0, p.maxSpeed, Time::seconds(1));
  fx.attachAll(scan);
  fx.attachAll(grid);

  // Query instants: every leg start and end in the first 40 s (where a
  // cached piece must advance), refresh-period boundaries and the
  // nanoseconds around them, and a regular 70 ms beat in between.
  const Time ns = Time::nanos(1);
  const Time last = Time::seconds(40);
  std::vector<Time> times;
  for (const auto* wp : wps) {
    for (const auto& leg : wp->legs()) {
      if (leg.end > last) break;
      times.push_back(leg.start);
      times.push_back(leg.end);
    }
  }
  for (int s = 1; s <= 40; ++s) {
    for (const Time t : {Time::seconds(s) - ns, Time::seconds(s),
                         Time::seconds(s) + ns}) {
      times.push_back(t);
    }
  }
  for (Time t = Time::zero(); t <= last; t += Time::millis(70)) {
    times.push_back(t);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  std::size_t visits = 0;
  for (const Time t : times) {
    fx.sched.runUntil(t);  // advances sim time
    ASSERT_EQ(fx.sched.now(), t);
    // Around every tenth radio, rotating, so each radio is a sender often.
    for (std::size_t i = static_cast<std::size_t>(t.ns() % 10); i < 100;
         i += 10) {
      const Radio* r = fx.radios[i].get();
      const Vec2 pos = r->mobility().positionAt(t);
      const auto want = query(scan, pos, 250.0, t, r);
      ASSERT_EQ(want, query(grid, pos, 250.0, t, r))
          << "t=" << t.ns() << "ns around node " << r->id();
      EXPECT_LE(grid.lastExamined(), scan.lastExamined());
      visits += want.size();
    }
    for (const auto& r : fx.radios) {
      const Vec2 want = r->mobility().positionAt(t);
      const Vec2 got = grid.positionAt(r->id(), t);
      ASSERT_EQ(want.x, got.x);
      ASSERT_EQ(want.y, got.y);
    }
  }
  EXPECT_GT(visits, times.size());  // the queries found receivers
  EXPECT_GE(grid.refreshCount(), 39u);
}

/// Moves from `from` to `to` over [0, arrive), then holds `to`.
class ApproachMobility final : public mobility::MobilityModel {
 public:
  ApproachMobility(Vec2 from, Vec2 to, Time arrive)
      : from_(from), to_(to), arrive_(arrive) {}
  mobility::Segment segmentAt(Time t) const override {
    if (t < arrive_) {
      return {from_, to_, Time::zero(), arrive_, Time::min(), arrive_};
    }
    return mobility::Segment::fixed(to_, arrive_, Time::max());
  }

 private:
  Vec2 from_;
  Vec2 to_;
  Time arrive_;
};

TEST(NeighborIndexTest, GridKeepsReceiverAtRangeAfterFullPeriodAtSpeedBound) {
  // Radios close in on a static one for the longest stretch the grid
  // serves from one bucketing (refresh period minus 1 ns) and stop at
  // exactly `range`, so their stored positions sit at the edge of the
  // search radius `range + slack`. A third move at exactly the speed bound.
  // The rest cover the distance of waypoint legs at the bound whose travel
  // times were truncated: by 0.9 ns in one leg (18 nm past the edge) or by
  // 1 ns in each of three legs (60 nm). The query point sits one cell
  // (270 m) from cell boundaries, so the 60 nm radios' stored positions
  // land just across a boundary from the unpadded search block.
  const double kRange = 250.0;
  const double kSpeed = 20.0;
  const Time arrive = Time::seconds(1) - Time::nanos(1);
  Fixture fx;
  const Vec2 c{1080.0, 1080.0};
  fx.addRadio(0, std::make_unique<StaticMobility>(c));
  const Vec2 dirs[] = {{1.0, 0.0}, {-1.0, 0.0}, {0.0, 1.0}, {0.0, -1.0}};
  net::NodeId id = 1;
  for (const double truncatedSec : {0.0, 0.9e-9, 3e-9}) {
    const double travel = kSpeed * (arrive.toSeconds() + truncatedSec);
    for (const Vec2& d : dirs) {
      fx.addRadio(id++, std::make_unique<ApproachMobility>(
                            c + d * (kRange + travel), c + d * kRange,
                            arrive));
    }
  }
  ScanNeighborIndex scan(fx.sched);
  GridNeighborIndex grid(fx.sched, kRange, kSpeed, Time::seconds(1));
  fx.attachAll(scan);
  fx.attachAll(grid);
  ASSERT_TRUE(query(grid, c, kRange, Time::zero(), fx.radios[0].get()).empty());
  fx.sched.runUntil(arrive);
  const auto got = query(grid, c, kRange, arrive, fx.radios[0].get());
  EXPECT_EQ(grid.refreshCount(), 0u);  // served from the t = 0 bucketing
  EXPECT_EQ(got, query(scan, c, kRange, arrive, fx.radios[0].get()));
  ASSERT_EQ(got.size(), 12u);
  for (const auto& [rid, d] : got) EXPECT_EQ(d, kRange) << "node " << rid;
}

TEST(NeighborIndexTest, ExactQueriesAgreeAcrossKinds) {
  sim::Rng rng(99);
  Fixture fx;
  for (int i = 0; i < 10; ++i) {
    fx.addRadio(static_cast<net::NodeId>(i),
                std::make_unique<StaticMobility>(
                    Vec2{rng.uniform(0.0, 800.0), rng.uniform(0.0, 800.0)}));
  }
  ScanNeighborIndex scan(fx.sched);
  GridNeighborIndex grid(fx.sched, 250.0, 20.0, Time::seconds(1));
  fx.attachAll(scan);
  fx.attachAll(grid);
  for (net::NodeId a = 0; a < 10; ++a) {
    const Vec2 pa = scan.positionAt(a, Time::zero());
    const Vec2 pb = grid.positionAt(a, Time::zero());
    EXPECT_EQ(pa.x, pb.x);
    EXPECT_EQ(pa.y, pb.y);
    for (net::NodeId b = 0; b < 10; ++b) {
      EXPECT_EQ(scan.inRangeAt(a, b, Time::zero(), 250.0),
                grid.inRangeAt(a, b, Time::zero(), 250.0));
    }
  }
}

TEST(NeighborIndexTest, ForEachRadioVisitsAllInAttachOrder) {
  Fixture fx;
  for (int i = 0; i < 7; ++i) {
    fx.addRadio(static_cast<net::NodeId>(i),
                std::make_unique<StaticMobility>(Vec2{100.0 * i, 0.0}));
  }
  for (NeighborIndexKind kind :
       {NeighborIndexKind::kScan, NeighborIndexKind::kGrid}) {
    auto index =
        makeNeighborIndex(kind, fx.sched, 250.0, 20.0, Time::seconds(1));
    fx.attachAll(*index);
    EXPECT_EQ(index->size(), 7u);
    // A range covering every radio visits all of them, in attach order.
    std::vector<net::NodeId> seen;
    index->forEachInRange(Vec2{300.0, 0.0}, 1000.0, Time::zero(), nullptr,
                          [&](Radio& r, double) { seen.push_back(r.id()); });
    EXPECT_EQ(seen, (std::vector<net::NodeId>{0, 1, 2, 3, 4, 5, 6}));
  }
}

TEST(NeighborIndexTest, KindParsingAndFactory) {
  EXPECT_STREQ(toString(NeighborIndexKind::kScan), "scan");
  EXPECT_STREQ(toString(NeighborIndexKind::kGrid), "grid");
  Scheduler sched;
  EXPECT_STREQ(makeNeighborIndex(NeighborIndexKind::kScan, sched, 250.0, 20.0,
                                 Time::seconds(1))
                   ->name(),
               "scan");
  EXPECT_STREQ(makeNeighborIndex(NeighborIndexKind::kGrid, sched, 250.0, 20.0,
                                 Time::seconds(1))
                   ->name(),
               "grid");
}

}  // namespace
}  // namespace manet::phy
