// Random waypoint mobility (the paper's mobility model).
//
// Each node journeys from a random location to a random destination at a
// speed drawn uniformly from (minSpeed, maxSpeed]; on arrival it pauses for
// the configured pause time, then picks the next destination. Pause time is
// the paper's mobility knob: pause 0 s = constant motion, pause >= the run
// length = a static network.
#pragma once

#include <vector>

#include "src/mobility/mobility_model.h"
#include "src/sim/rng.h"

namespace manet::mobility {

class RandomWaypoint final : public MobilityModel {
 public:
  struct Params {
    Vec2 field{2200.0, 600.0};  // paper: 2200 m x 600 m rectangle
    double minSpeed = 0.1;      // m/s; avoids the RWP zero-speed pathology
    double maxSpeed = 20.0;     // m/s
    sim::Time pause = sim::Time::zero();
    sim::Time horizon = sim::Time::seconds(500);  // trajectory length
  };

  /// Precomputes the full trajectory up to `params.horizon` from `rng`
  /// (consumed by value so each node owns an independent stream).
  RandomWaypoint(sim::Rng rng, const Params& params);

  /// Before the first leg and after the last one the node holds its end
  /// point; in between, the piece is the leg that holds `t`.
  Segment segmentAt(sim::Time t) const override;

  /// One motion or pause segment; `from == to` during pauses.
  struct Leg {
    sim::Time start;
    sim::Time end;
    Vec2 from;
    Vec2 to;
  };
  const std::vector<Leg>& legs() const { return legs_; }

 private:
  std::vector<Leg> legs_;
  // Last leg served: position queries track sim time, so the containing leg
  // is almost always the cached one or its successor — amortized O(1)
  // instead of a binary search per query. Pure cache (same answer either
  // way); models are owned by one scenario and queried single-threaded.
  mutable std::size_t cursor_ = 0;
};

}  // namespace manet::mobility
