// Spatial neighbor queries over the registered radios.
//
// The channel is a shared broadcast medium: every transmission must reach
// exactly the radios within range of the transmitter. Doing that by scanning
// every radio is O(N) per frame — the dominant cost on large scenarios.
// NeighborIndex is the seam that makes the fast implementation a swappable
// drop-in:
//
//   * ScanNeighborIndex — the original full scan; zero bookkeeping, exact.
//   * GridNeighborIndex — flat per-radio state in attach order: each radio's
//     cached trajectory piece (mobility::Segment) and its position at the
//     last refresh, bucketed into a dense array of cells sized so that only
//     a radio bucketed in the 3x3 cell block around a query point can
//     possibly be in range. Node positions are continuous functions of time,
//     so the grid re-buckets lazily (amortized over queries) and pads its
//     search radius by the worst-case movement since the last refresh. A
//     candidate whose stored position is farther than that is rejected
//     without evaluating its trajectory; the rest set bits in a bitset over
//     attach indices and are confirmed, in ascending attach order, with an
//     exact distance check on the cached piece. Pieces are evaluated by the
//     one evaluator every position query uses, so the grid and the scan
//     deliver *identical* frame sets with bit-equal distances in identical
//     order, and runs stay byte-identical whichever index is selected.
//
// Consumers beyond Channel::transmit (the channel's carrier sense, the link
// oracle's ground-truth checks, Network::positionOf) use the same query API
// instead of reaching into radio lists directly.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/mobility/mobility_model.h"
#include "src/net/packet.h"
#include "src/sim/scheduler.h"
#include "src/util/vec2.h"

namespace manet::phy {

class Radio;

/// Non-owning callable reference used on the per-transmission visit path.
/// Two words, never allocates: a std::function built from a capturing
/// lambda would heap-allocate on every Channel::transmit. The referenced
/// callable must outlive the forEachInRange call (trivially true for the
/// inline lambdas at every call site).
class RadioVisitor {
 public:
  template <class F, class = std::enable_if_t<
                         !std::is_same_v<std::decay_t<F>, RadioVisitor>>>
  // NOLINTNEXTLINE(google-explicit-constructor): call-site lambdas convert
  RadioVisitor(F&& f)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* o, Radio& r, double d) {
          (*static_cast<std::remove_reference_t<F>*>(o))(r, d);
        }) {}

  void operator()(Radio& r, double d) const { call_(obj_, r, d); }

 private:
  void* obj_;
  void (*call_)(void*, Radio&, double);
};

/// Which NeighborIndex implementation a channel builds.
enum class NeighborIndexKind : std::uint8_t { kScan, kGrid };

const char* toString(NeighborIndexKind k);

class NeighborIndex {
 public:
  virtual ~NeighborIndex() = default;

  /// Register a radio (non-owning; must outlive the index). Radios are
  /// visited in attach order by every enumeration below; Network attaches
  /// in node-id order, so attach order == id order in a simulation.
  virtual void attach(Radio* r) = 0;

  /// Visit every attached radio (except `exclude`, which may be null) whose
  /// current position is within `range` meters of `pos`, in attach order.
  /// `now` must be the scheduler's current time. `fn` receives the radio and
  /// its exact distance from `pos`.
  virtual void forEachInRange(const Vec2& pos, double range, sim::Time now,
                              const Radio* exclude,
                              RadioVisitor fn) const = 0;

  /// Radios whose (possibly stale) indexed position the previous
  /// forEachInRange call had to examine (perfbench's
  /// `phy.examined_per_query`). A full scan examines everyone but the
  /// excluded sender; the grid examines only the candidate cells.
  virtual std::size_t lastExamined() const = 0;

  std::size_t size() const { return radios_.size(); }
  virtual const char* name() const = 0;

  // --- exact queries ---

  /// Position of radio `id` at an arbitrary sim time (charged to the
  /// mobility category like every other position query). The channel's
  /// carrier sense and sender positions, the link oracle and
  /// Network::positionOf all read positions here. `id` must be attached.
  Vec2 positionAt(net::NodeId id, sim::Time t) const;

  /// True if radios `a` and `b` are within `range` meters of each other at
  /// time `t`. Exact: evaluates both trajectories at `t`.
  bool inRangeAt(net::NodeId a, net::NodeId b, sim::Time t,
                 double range) const;

 protected:
  explicit NeighborIndex(sim::Scheduler& sched) : sched_(sched) {}

  /// Append `r` to the attach order and map its id to its attach index;
  /// implementations call this from attach().
  void registerRadio(Radio* r);
  /// Position of the radio at attach index `slot` at time `t`.
  virtual Vec2 slotPosition(std::uint32_t slot, sim::Time t) const = 0;

  sim::Scheduler& sched_;
  std::vector<Radio*> radios_;  // attach order

 private:
  std::vector<std::uint32_t> slotById_;  // node id -> attach index
};

/// The original O(N) full scan. Reference implementation and the byte-compare
/// partner for GridNeighborIndex.
class ScanNeighborIndex final : public NeighborIndex {
 public:
  explicit ScanNeighborIndex(sim::Scheduler& sched) : NeighborIndex(sched) {}

  void attach(Radio* r) override { registerRadio(r); }
  void forEachInRange(const Vec2& pos, double range, sim::Time now,
                      const Radio* exclude, RadioVisitor fn) const override;
  std::size_t lastExamined() const override { return lastExamined_; }
  const char* name() const override { return "scan"; }

 private:
  Vec2 slotPosition(std::uint32_t slot, sim::Time t) const override;

  mutable std::size_t lastExamined_ = 0;
};

/// Uniform-grid spatial index keyed to the fixed transmission disc.
///
/// Cell size = range + speedBound * refreshPeriod, so after a refresh no
/// radio can drift out of the 3x3 cell block around a query point before the
/// next refresh is due. Queries lazily trigger a full re-bucket when the
/// last one is older than `refreshPeriod` (O(N), amortized over the many
/// queries between refreshes) and pad the candidate search radius by the
/// worst-case drift since then. Purely passive: never schedules events,
/// never draws randomness — selecting it cannot perturb a run.
class GridNeighborIndex final : public NeighborIndex {
 public:
  /// `speedBound` is the fastest any node may move (m/s); `refreshPeriod`
  /// bounds bucket staleness. The defaults in PhyConfig cover the paper's
  /// scenarios with a wide margin; Scenario raises the bound automatically
  /// when a config's maxSpeed exceeds it.
  GridNeighborIndex(sim::Scheduler& sched, double cellRange,
                    double speedBound, sim::Time refreshPeriod);

  void attach(Radio* r) override;
  void forEachInRange(const Vec2& pos, double range, sim::Time now,
                      const Radio* exclude, RadioVisitor fn) const override;
  std::size_t lastExamined() const override { return lastExamined_; }
  const char* name() const override { return "grid"; }

  /// Test hook: number of full re-buckets performed so far.
  std::uint64_t refreshCount() const { return refreshes_; }

 private:
  /// Cell column/row of coordinate `v`, clamped to [0, n). Radios and
  /// query blocks are clamped alike, so a radio whose cell lies in a query's
  /// block still does after clamping: the 3x3 superset survives.
  std::int64_t cellIndex(double v, std::int64_t origin,
                         std::int64_t n) const;
  /// Evaluates the cached piece, first advancing it if `t` has left the
  /// piece's window.
  Vec2 slotPosition(std::uint32_t slot, sim::Time t) const override;
  void refresh(sim::Time now) const;
  void rebuildCells() const;

  double cellSize_;
  double speedBound_;
  sim::Time refreshPeriod_;
  double pad_;
  // Lazily maintained spatial state (const queries refresh it; the same
  // mutable-cache idiom as Channel::prune). Per-radio vectors are indexed by
  // attach index.
  mutable std::vector<mobility::Segment> segments_;  // cached pieces
  mutable std::vector<Vec2> stored_;  // positions at the last refresh
  // Dense cells in CSR form: the cell at (column cx, row cy), counted from
  // (originX_, originY_), holds cellSlots_[cellStart_[c] .. cellStart_[c+1])
  // with c = cy * cols_ + cx, ascending. cellPos_ mirrors cellSlots_ with
  // the stored positions, so the prefilter reads memory in order.
  mutable std::int64_t originX_ = 0;
  mutable std::int64_t originY_ = 0;
  mutable std::int64_t cols_ = 0;
  mutable std::int64_t rows_ = 0;
  mutable std::vector<std::uint32_t> cellStart_;
  mutable std::vector<std::uint32_t> cellSlots_;
  mutable std::vector<Vec2> cellPos_;
  mutable bool cellsStale_ = true;  // a radio was attached since the rebuild
  mutable std::vector<std::uint64_t> candidates_;  // bitset over slots
  mutable sim::Time lastRefresh_ = sim::Time::zero();
  mutable std::size_t lastExamined_ = 0;
  mutable std::uint64_t refreshes_ = 0;
};

/// Build the index selected by `kind`. `rangeMeters`, `speedBound` and
/// `refreshPeriod` parameterize the grid; the scan ignores them.
std::unique_ptr<NeighborIndex> makeNeighborIndex(NeighborIndexKind kind,
                                                 sim::Scheduler& sched,
                                                 double rangeMeters,
                                                 double speedBound,
                                                 sim::Time refreshPeriod);

}  // namespace manet::phy
