#include "src/mobility/waypoint.h"

#include <algorithm>
#include <cassert>

namespace manet::mobility {

RandomWaypoint::RandomWaypoint(sim::Rng rng, const Params& p) {
  assert(p.maxSpeed > 0 && p.minSpeed > 0 && p.maxSpeed >= p.minSpeed);
  auto randomPoint = [&] {
    return Vec2{rng.uniform(0.0, p.field.x), rng.uniform(0.0, p.field.y)};
  };

  sim::Time t = sim::Time::zero();
  Vec2 pos = randomPoint();
  // As in the original CMU model: "each node begins the simulation by
  // remaining stationary for pause_time seconds" — so a pause time equal to
  // the run length means no mobility at all (the paper's pause = 500 s).
  if (p.pause > sim::Time::zero()) {
    legs_.push_back(Leg{t, t + p.pause, pos, pos});
    t += p.pause;
  }
  while (t < p.horizon) {
    const Vec2 dest = randomPoint();
    const double speed = rng.uniform(p.minSpeed, p.maxSpeed);
    const double dist = distance(pos, dest);
    // manet-lint: allow(float-time): kinematics are inherently real-valued;
    // fixed-op conversion, same seed -> same leg schedule.
    const sim::Time travel = sim::Time::fromSeconds(dist / speed);
    legs_.push_back(Leg{t, t + travel, pos, dest});
    t += travel;
    pos = dest;
    if (p.pause > sim::Time::zero() && t < p.horizon) {
      legs_.push_back(Leg{t, t + p.pause, pos, pos});
      t += p.pause;
    }
  }
}

Segment RandomWaypoint::segmentAt(sim::Time t) const {
  assert(!legs_.empty());
  const Leg& first = legs_.front();
  const Leg& last = legs_.back();
  if (t <= first.start) {
    return Segment::fixed(first.from, sim::Time::min(),
                          first.start + sim::Time::nanos(1));
  }
  if (t >= last.end) {
    return Segment::fixed(last.to, last.end, sim::Time::max());
  }
  // Find the leg containing t: first leg with end > t. Try the cached leg
  // and its successor first (queries track sim time), then fall back to
  // the binary search.
  const auto contains = [&](std::size_t j) {
    return legs_[j].start <= t && t < legs_[j].end;
  };
  std::size_t i = cursor_;
  if (i >= legs_.size() || !contains(i)) {
    if (i + 1 < legs_.size() && contains(i + 1)) {
      i = i + 1;
    } else {
      i = static_cast<std::size_t>(
          std::upper_bound(
              legs_.begin(), legs_.end(), t,
              [](sim::Time v, const Leg& leg) { return v < leg.end; }) -
          legs_.begin());
    }
    cursor_ = i;
  }
  const Leg& leg = legs_[i];
  // The first leg's start instant belongs to the fixed piece above (so
  // does a zero-length first leg's successor's, which shares it).
  const sim::Time validFrom =
      std::max(leg.start, first.start + sim::Time::nanos(1));
  return Segment{leg.from, leg.to, leg.start, leg.end, validFrom, leg.end};
}

}  // namespace manet::mobility
