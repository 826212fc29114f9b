// Abstract mobility interface: position as a pure function of time.
#pragma once

#include "src/sim/time.h"
#include "src/util/vec2.h"

namespace manet::mobility {

/// The linear piece of a trajectory that holds the times in
/// [validFrom, validUntil): the position moves from `from` at `start` to
/// `to` at `end`. A piece with `start == end` is a fixed point. A
/// trajectory's pieces partition time, so a piece answers every query
/// inside its window: callers may cache it until the query time leaves the
/// window (GridNeighborIndex does).
struct Segment {
  Vec2 from;
  Vec2 to;
  sim::Time start;
  sim::Time end;
  sim::Time validFrom;
  sim::Time validUntil;

  bool holds(sim::Time t) const { return validFrom <= t && t < validUntil; }

  /// The one position evaluator every model shares: equal inputs give
  /// bit-equal positions wherever the piece is evaluated. Defined out of
  /// line so every caller runs the same machine code: an inlined copy could
  /// be contracted into a fused multiply-add at one call site and not at
  /// another, and the grid's distances would drift from the scan's.
  Vec2 at(sim::Time t) const;

  /// A piece that stays at `p` over [validFrom, validUntil).
  static Segment fixed(Vec2 p, sim::Time validFrom, sim::Time validUntil) {
    return {p, p, validFrom, validFrom, validFrom, validUntil};
  }
};

/// A node's trajectory. Implementations must be deterministic functions of
/// time so any layer (channel, oracle) can query positions without coupling
/// to a periodic position-update event.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// The piece that holds `t` (its window contains `t`).
  virtual Segment segmentAt(sim::Time t) const = 0;

  Vec2 positionAt(sim::Time t) const { return segmentAt(t).at(t); }
};

/// A node that never moves (unit tests, fixed topologies).
class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(Vec2 pos) : pos_(pos) {}
  Segment segmentAt(sim::Time) const override {
    return Segment::fixed(pos_, sim::Time::min(), sim::Time::max());
  }

 private:
  Vec2 pos_;
};

}  // namespace manet::mobility
