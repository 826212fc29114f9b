#include "src/phy/neighbor_index.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "src/phy/radio.h"

namespace manet::phy {

const char* toString(NeighborIndexKind k) {
  switch (k) {
    case NeighborIndexKind::kScan:
      return "scan";
    case NeighborIndexKind::kGrid:
      return "grid";
  }
  return "?";
}

// ------------------------------------------------------------ base class

void NeighborIndex::registerRadio(Radio* r) {
  const net::NodeId id = r->id();
  if (id >= slotById_.size()) slotById_.resize(std::size_t{id} + 1);
  slotById_[id] = static_cast<std::uint32_t>(radios_.size());
  radios_.push_back(r);
}

Vec2 NeighborIndex::positionAt(net::NodeId id, sim::Time t) const {
  const std::uint32_t slot = slotById_.at(id);
  return slotPosition(slot, t);
}

bool NeighborIndex::inRangeAt(net::NodeId a, net::NodeId b, sim::Time t,
                              double range) const {
  return distance(positionAt(a, t), positionAt(b, t)) <= range;
}

// ------------------------------------------------------------ full scan

void ScanNeighborIndex::forEachInRange(const Vec2& pos, double range,
                                       sim::Time /*now*/,
                                       const Radio* exclude,
                                       RadioVisitor fn) const {
  std::size_t examined = 0;
  for (Radio* r : radios_) {
    if (r == exclude) continue;
    ++examined;
    const double d = distance(pos, r->position());
    if (d > range) continue;
    fn(*r, d);
  }
  lastExamined_ = examined;
}

Vec2 ScanNeighborIndex::slotPosition(std::uint32_t slot, sim::Time t) const {
  return radios_[slot]->mobility().positionAt(t);
}

// ------------------------------------------------------------ uniform grid

GridNeighborIndex::GridNeighborIndex(sim::Scheduler& sched, double cellRange,
                                     double speedBound,
                                     sim::Time refreshPeriod)
    : NeighborIndex(sched),
      // Cell size covers the query disc plus the worst drift between two
      // refreshes, so a 3x3 cell block around any query point always holds
      // every possible receiver.
      // manet-lint: allow(float-time): sizes the search window only; every
      // candidate is then tested by exact distance and visited in attach
      // order, so the rounding cannot reach which radios hear a frame.
      cellSize_(cellRange + speedBound * refreshPeriod.toSeconds()),
      speedBound_(speedBound),
      refreshPeriod_(refreshPeriod),
      // The search radius `range + speedBound * staleness` bounds motion at
      // exactly the speed bound. Two roundings let a trajectory outrun it:
      //  * Time: a random-waypoint leg's travel time is truncated to whole
      //    nanoseconds (Time::fromSeconds), so a leg ends at most
      //    speedBound * 1 ns farther along than the bound allows (a
      //    zero-length leg jumps by less than that). Between two refreshes
      //    the excess is (legs crossed) * speedBound * 1 ns.
      //  * Floating point: positions and the slack carry a few ulps of
      //    kilometre-scale coordinates, about 1e-12 m.
      // A pad of speedBound * 1 us covers a thousand legs per refresh
      // period (a 1 s period at 20 m/s crosses a few) and the float error
      // by many orders of magnitude: 20 um at 20 m/s. Debug builds assert
      // that every radio the pad lets the prefilter reject is out of range.
      pad_(speedBound * 1e-6) {}

void GridNeighborIndex::attach(Radio* r) {
  registerRadio(r);
  const sim::Time now = sched_.now();
  segments_.push_back(r->mobility().segmentAt(now));
  stored_.push_back(segments_.back().at(now));
  candidates_.resize((radios_.size() + 63) / 64);
  cellsStale_ = true;
}

Vec2 GridNeighborIndex::slotPosition(std::uint32_t slot, sim::Time t) const {
  mobility::Segment& seg = segments_[slot];
  if (!seg.holds(t)) seg = radios_[slot]->mobility().segmentAt(t);
  return seg.at(t);
}

std::int64_t GridNeighborIndex::cellIndex(double v, std::int64_t origin,
                                          std::int64_t n) const {
  const auto c = static_cast<std::int64_t>(std::floor(v / cellSize_));
  return std::clamp<std::int64_t>(c - origin, 0, n - 1);
}

void GridNeighborIndex::refresh(sim::Time now) const {
  for (std::uint32_t i = 0; i < radios_.size(); ++i) {
    stored_[i] = slotPosition(i, now);
  }
  rebuildCells();
  lastRefresh_ = now;
  ++refreshes_;
}

void GridNeighborIndex::rebuildCells() const {
  // The array spans the cells of the stored positions' bounding box, capped
  // per axis (cellIndex clamps anything beyond the cap into the border).
  constexpr std::int64_t kMaxCellsPerAxis = 1024;
  const auto cell = [this](double v) {
    return static_cast<std::int64_t>(std::floor(v / cellSize_));
  };
  std::int64_t x0 = cell(stored_[0].x);
  std::int64_t x1 = x0;
  std::int64_t y0 = cell(stored_[0].y);
  std::int64_t y1 = y0;
  for (const Vec2& p : stored_) {
    x0 = std::min(x0, cell(p.x));
    x1 = std::max(x1, cell(p.x));
    y0 = std::min(y0, cell(p.y));
    y1 = std::max(y1, cell(p.y));
  }
  originX_ = x0;
  originY_ = y0;
  cols_ = std::min(x1 - x0 + 1, kMaxCellsPerAxis);
  rows_ = std::min(y1 - y0 + 1, kMaxCellsPerAxis);

  // Counting sort by cell. Slots are placed in attach order, so each cell's
  // run comes out ascending.
  const auto cells = static_cast<std::size_t>(cols_ * rows_);
  cellStart_.assign(cells + 1, 0);
  cellSlots_.resize(stored_.size());
  cellPos_.resize(stored_.size());
  std::vector<std::uint32_t> cellOf(stored_.size());
  for (std::uint32_t i = 0; i < stored_.size(); ++i) {
    cellOf[i] = static_cast<std::uint32_t>(
        cellIndex(stored_[i].y, originY_, rows_) * cols_ +
        cellIndex(stored_[i].x, originX_, cols_));
    ++cellStart_[cellOf[i] + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) cellStart_[c + 1] += cellStart_[c];
  std::vector<std::uint32_t> next(cellStart_.begin(), cellStart_.end() - 1);
  for (std::uint32_t i = 0; i < stored_.size(); ++i) {
    const std::uint32_t k = next[cellOf[i]]++;
    cellSlots_[k] = i;
    cellPos_[k] = stored_[i];
  }
  cellsStale_ = false;
}

void GridNeighborIndex::forEachInRange(const Vec2& pos, double range,
                                       sim::Time now, const Radio* exclude,
                                       RadioVisitor fn) const {
  assert(now == sched_.now());
  lastExamined_ = 0;
  if (radios_.empty()) return;
  if (now - lastRefresh_ >= refreshPeriod_) {
    refresh(now);
  } else if (cellsStale_) {
    rebuildCells();
  }
  // A radio in range *now* was bucketed at most `slack + pad_` meters away
  // from its current position, so searching the cells within `reach` of the
  // query point, and keeping the radios bucketed within `reach` of it,
  // yields a guaranteed superset of the true receiver set.
  // manet-lint: allow(float-time): pads the search window only, as for
  // cellSize_; fixed-op, so the same inputs give the same cells everywhere.
  const double slack = speedBound_ * (now - lastRefresh_).toSeconds();
  const double reach = range + slack + pad_;
  const double reach2 = reach * reach;

  const std::int64_t cx0 = cellIndex(pos.x - reach, originX_, cols_);
  const std::int64_t cx1 = cellIndex(pos.x + reach, originX_, cols_);
  const std::int64_t cy0 = cellIndex(pos.y - reach, originY_, rows_);
  const std::int64_t cy1 = cellIndex(pos.y + reach, originY_, rows_);
  std::size_t examined = 0;
  std::size_t wordLo = candidates_.size();
  std::size_t wordHi = 0;
  for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
    // Cells of one row are adjacent in CSR order: one contiguous run.
    const auto row = static_cast<std::size_t>(cy * cols_);
    const std::uint32_t k1 =
        cellStart_[row + static_cast<std::size_t>(cx1) + 1];
    for (std::uint32_t k = cellStart_[row + static_cast<std::size_t>(cx0)];
         k < k1; ++k) {
      const std::uint32_t i = cellSlots_[k];
      if (radios_[i] == exclude) continue;
      ++examined;
      const Vec2 off = cellPos_[k] - pos;
      if (off.x * off.x + off.y * off.y > reach2) {
        assert(distance(pos, radios_[i]->mobility().positionAt(now)) >
                   range &&
               "prefilter rejected a radio in range");
        continue;
      }
      const std::size_t w = i >> 6;
      candidates_[w] |= std::uint64_t{1} << (i & 63);
      wordLo = std::min(wordLo, w);
      wordHi = std::max(wordHi, w);
    }
  }
  lastExamined_ = examined;

  // Ascending bit order is ascending attach order: the scan's visit order.
  for (std::size_t w = wordLo; w <= wordHi; ++w) {
    std::uint64_t bits = candidates_[w];
    candidates_[w] = 0;
    while (bits != 0) {
      const auto i = static_cast<std::uint32_t>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      const double d = distance(pos, slotPosition(i, now));
      if (d > range) continue;
      fn(*radios_[i], d);
    }
  }
}

// ------------------------------------------------------------ factory

std::unique_ptr<NeighborIndex> makeNeighborIndex(NeighborIndexKind kind,
                                                 sim::Scheduler& sched,
                                                 double rangeMeters,
                                                 double speedBound,
                                                 sim::Time refreshPeriod) {
  if (kind == NeighborIndexKind::kGrid) {
    return std::make_unique<GridNeighborIndex>(sched, rangeMeters, speedBound,
                                               refreshPeriod);
  }
  return std::make_unique<ScanNeighborIndex>(sched);
}

}  // namespace manet::phy
