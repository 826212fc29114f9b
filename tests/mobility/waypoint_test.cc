#include "src/mobility/waypoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/sim/rng.h"

namespace manet::mobility {
namespace {

using sim::Rng;
using sim::Time;

RandomWaypoint::Params defaultParams() {
  RandomWaypoint::Params p;
  p.field = {1000.0, 400.0};
  p.minSpeed = 0.5;
  p.maxSpeed = 20.0;
  p.pause = Time::zero();
  p.horizon = Time::seconds(200);
  return p;
}

TEST(WaypointTest, StaysInsideField) {
  auto p = defaultParams();
  RandomWaypoint wp(Rng(11), p);
  for (int t = 0; t <= 200; ++t) {
    const Vec2 pos = wp.positionAt(Time::seconds(t));
    EXPECT_GE(pos.x, 0.0);
    EXPECT_LE(pos.x, p.field.x);
    EXPECT_GE(pos.y, 0.0);
    EXPECT_LE(pos.y, p.field.y);
  }
}

TEST(WaypointTest, SpeedWithinBounds) {
  auto p = defaultParams();
  RandomWaypoint wp(Rng(13), p);
  const Time dt = Time::millis(100);
  for (Time t = Time::zero(); t < p.horizon - dt; t += Time::seconds(1)) {
    const double d = distance(wp.positionAt(t), wp.positionAt(t + dt));
    const double speed = d / dt.toSeconds();
    // Speed may be 0 across a waypoint turn; never above max.
    EXPECT_LE(speed, p.maxSpeed * 1.0001);
  }
}

TEST(WaypointTest, DeterministicForSameSeed) {
  auto p = defaultParams();
  RandomWaypoint a(Rng(42), p);
  RandomWaypoint b(Rng(42), p);
  for (int t = 0; t < 200; t += 7) {
    EXPECT_EQ(a.positionAt(Time::seconds(t)).x,
              b.positionAt(Time::seconds(t)).x);
    EXPECT_EQ(a.positionAt(Time::seconds(t)).y,
              b.positionAt(Time::seconds(t)).y);
  }
}

TEST(WaypointTest, DifferentSeedsProduceDifferentTrajectories) {
  auto p = defaultParams();
  RandomWaypoint a(Rng(1), p);
  RandomWaypoint b(Rng(2), p);
  EXPECT_NE(distance(a.positionAt(Time::seconds(50)),
                     b.positionAt(Time::seconds(50))),
            0.0);
}

TEST(WaypointTest, PauseHoldsPosition) {
  auto p = defaultParams();
  p.pause = Time::seconds(30);
  // Fast enough that the first journey (at most ~1.1 km) completes within
  // the horizon, guaranteeing at least one pause leg exists.
  p.minSpeed = 10.0;
  RandomWaypoint wp(Rng(5), p);
  // Find a pause leg and probe within it.
  bool foundPause = false;
  for (const auto& leg : wp.legs()) {
    if (leg.from == leg.to && leg.end > leg.start) {
      foundPause = true;
      const Time mid = leg.start + (leg.end - leg.start) * 0.5;
      EXPECT_EQ(wp.positionAt(mid), leg.from);
      EXPECT_EQ(leg.end - leg.start, p.pause);
      break;
    }
  }
  EXPECT_TRUE(foundPause);
}

TEST(WaypointTest, LegsAreContiguous) {
  auto p = defaultParams();
  p.pause = Time::seconds(5);
  RandomWaypoint wp(Rng(3), p);
  const auto& legs = wp.legs();
  ASSERT_FALSE(legs.empty());
  EXPECT_EQ(legs.front().start, Time::zero());
  for (std::size_t i = 1; i < legs.size(); ++i) {
    EXPECT_EQ(legs[i].start, legs[i - 1].end);
    EXPECT_EQ(legs[i].from, legs[i - 1].to);
  }
  EXPECT_GE(legs.back().end, p.horizon);
}

TEST(WaypointTest, PositionBeyondHorizonIsFinal) {
  auto p = defaultParams();
  RandomWaypoint wp(Rng(9), p);
  const Vec2 last = wp.positionAt(wp.legs().back().end);
  EXPECT_EQ(wp.positionAt(wp.legs().back().end + Time::seconds(100)), last);
}

TEST(WaypointTest, MotionIsLinearWithinLeg) {
  auto p = defaultParams();
  RandomWaypoint wp(Rng(21), p);
  // Pick the first motion leg and check the midpoint is halfway.
  const auto& leg = wp.legs().front();
  const Time mid = leg.start + (leg.end - leg.start) * 0.5;
  const Vec2 expect = leg.from + (leg.to - leg.from) * 0.5;
  const Vec2 got = wp.positionAt(mid);
  EXPECT_NEAR(got.x, expect.x, 1e-6);
  EXPECT_NEAR(got.y, expect.y, 1e-6);
}

TEST(WaypointTest, PausesBeforeFirstJourney) {
  // CMU model semantics: nodes remain stationary for the pause time before
  // the first journey, so pause >= horizon means a fully static node.
  auto p = defaultParams();
  p.pause = Time::seconds(30);
  RandomWaypoint wp(Rng(17), p);
  const Vec2 start = wp.positionAt(Time::zero());
  EXPECT_EQ(wp.positionAt(Time::seconds(15)), start);
  EXPECT_EQ(wp.positionAt(Time::seconds(30)), start);
}

TEST(WaypointTest, PauseEqualToHorizonMeansStaticNode) {
  auto p = defaultParams();
  p.pause = p.horizon;
  RandomWaypoint wp(Rng(23), p);
  const Vec2 start = wp.positionAt(Time::zero());
  for (int t = 0; t <= 200; t += 20) {
    EXPECT_EQ(wp.positionAt(Time::seconds(t)), start);
  }
}

// The leg-interpolating positionAt body RandomWaypoint had before
// positions were evaluated through Segment::at, kept as an oracle.
Vec2 oraclePositionAt(const std::vector<RandomWaypoint::Leg>& legs,
                      std::size_t& cursor, Time t) {
  if (t <= legs.front().start) return legs.front().from;
  if (t >= legs.back().end) return legs.back().to;
  const auto contains = [&](std::size_t j) {
    return legs[j].start <= t && t < legs[j].end;
  };
  std::size_t i = cursor;
  if (i >= legs.size() || !contains(i)) {
    if (i + 1 < legs.size() && contains(i + 1)) {
      i = i + 1;
    } else {
      i = static_cast<std::size_t>(
          std::upper_bound(legs.begin(), legs.end(), t,
                           [](Time v, const RandomWaypoint::Leg& leg) {
                             return v < leg.end;
                           }) -
          legs.begin());
    }
    cursor = i;
  }
  const RandomWaypoint::Leg& leg = legs[i];
  if (leg.end == leg.start) return leg.from;
  const double frac =
      (t - leg.start).toSeconds() / (leg.end - leg.start).toSeconds();
  return leg.from + (leg.to - leg.from) * frac;
}

bool bitEqual(Vec2 a, Vec2 b) {
  return std::bit_cast<std::uint64_t>(a.x) ==
             std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

/// Every leg's start, start + 1 ns, midpoint, end - 1 ns and end, plus
/// instants before the first leg and after the last, in ascending order.
std::vector<Time> probeTimes(const RandomWaypoint& wp) {
  const Time ns = Time::nanos(1);
  std::vector<Time> ts{Time::seconds(-1), Time::zero() - ns};
  for (const auto& leg : wp.legs()) {
    ts.push_back(leg.start);
    ts.push_back(leg.start + ns);
    ts.push_back(leg.start + Time::nanos((leg.end - leg.start).ns() / 2));
    ts.push_back(leg.end - ns);
    ts.push_back(leg.end);
  }
  ts.push_back(wp.legs().back().end + ns);
  ts.push_back(wp.legs().back().end + Time::seconds(100));
  std::sort(ts.begin(), ts.end());
  return ts;
}

/// Compares positionAt (and every cached piece still holding a later probe)
/// with the oracle, bit for bit. Returns the number of zero-length legs.
int expectMatchesOracle(const RandomWaypoint& wp) {
  std::size_t cursor = 0;
  Segment cached = wp.segmentAt(Time::min());
  for (const Time t : probeTimes(wp)) {
    const Vec2 want = oraclePositionAt(wp.legs(), cursor, t);
    EXPECT_TRUE(bitEqual(wp.positionAt(t), want)) << "t=" << t.ns();
    const Segment seg = wp.segmentAt(t);
    EXPECT_TRUE(seg.holds(t)) << "t=" << t.ns();
    // A piece answers for its whole window: one fetched at an earlier
    // probe gives the same bits as a fresh lookup.
    if (cached.holds(t)) {
      EXPECT_TRUE(bitEqual(cached.at(t), want)) << "cached, t=" << t.ns();
    }
    cached = seg;
  }
  return static_cast<int>(
      std::count_if(wp.legs().begin(), wp.legs().end(),
                    [](const auto& leg) { return leg.end == leg.start; }));
}

TEST(WaypointTest, SegmentsMatchLegInterpolationOracle) {
  auto p = defaultParams();
  for (const int pauseSec : {0, 30}) {
    p.pause = Time::seconds(pauseSec);
    RandomWaypoint wp(Rng(31), p);
    expectMatchesOracle(wp);
  }
}

TEST(WaypointTest, SegmentsMatchOracleOnZeroLengthAndPauseLegs) {
  // On a 10 nm field most legs take under a nanosecond, which truncates
  // to a zero-length leg; a 3 ns pause adds short pause legs between them.
  RandomWaypoint::Params p;
  p.field = {1e-8, 1e-8};
  p.minSpeed = 0.1;
  p.maxSpeed = 20.0;
  p.horizon = Time::micros(5);
  for (const Time pause : {Time::zero(), Time::nanos(3)}) {
    p.pause = pause;
    RandomWaypoint wp(Rng(8), p);
    EXPECT_GT(expectMatchesOracle(wp), 0) << "no zero-length legs";
  }
}

// Property sweep: field containment holds across seeds and pause settings.
class WaypointPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WaypointPropertyTest, ContainmentAndContiguity) {
  const auto [seed, pauseSec] = GetParam();
  auto p = defaultParams();
  p.pause = Time::seconds(pauseSec);
  RandomWaypoint wp(Rng(static_cast<std::uint64_t>(seed)), p);
  for (int t = 0; t < 200; t += 11) {
    const Vec2 pos = wp.positionAt(Time::seconds(t));
    ASSERT_GE(pos.x, 0.0);
    ASSERT_LE(pos.x, p.field.x);
    ASSERT_GE(pos.y, 0.0);
    ASSERT_LE(pos.y, p.field.y);
  }
  const auto& legs = wp.legs();
  for (std::size_t i = 1; i < legs.size(); ++i) {
    ASSERT_EQ(legs[i].start, legs[i - 1].end);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WaypointPropertyTest,
    ::testing::Combine(::testing::Values(1, 7, 23, 99),
                       ::testing::Values(0, 1, 30, 500)));

}  // namespace
}  // namespace manet::mobility
