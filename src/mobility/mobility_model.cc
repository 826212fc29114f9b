#include "src/mobility/mobility_model.h"

namespace manet::mobility {

Vec2 Segment::at(sim::Time t) const {
  if (end == start) return from;
  // manet-lint: allow(float-time): position interpolation is real-valued;
  // fixed-op, so the same piece and time give the same bits everywhere.
  const double frac = (t - start).toSeconds() / (end - start).toSeconds();
  return from + (to - from) * frac;
}

}  // namespace manet::mobility
