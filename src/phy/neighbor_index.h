// Spatial neighbor queries over the registered radios.
//
// The channel is a shared broadcast medium: every transmission must reach
// exactly the radios within range of the transmitter. Doing that by scanning
// every radio is O(N) per frame — the dominant cost on large scenarios.
// NeighborIndex is the seam that makes the fast implementation a swappable
// drop-in:
//
//   * ScanNeighborIndex — the original full scan; zero bookkeeping, exact.
//   * GridNeighborIndex — a uniform grid of cells sized so that only a
//     radio bucketed in the 3x3 cell block around a query point can possibly
//     be in range. Node positions are continuous functions of time, so the
//     grid re-buckets lazily (amortized over queries) and pads its search
//     radius by the worst-case movement since the last refresh; candidates
//     are then confirmed with an exact distance check. The candidate set is
//     therefore always a superset of the true in-range set, and the visit
//     order (ascending attach order) matches the full scan — so the two
//     implementations deliver *identical* frame sets in identical order and
//     runs stay byte-identical whichever index is selected.
//
// Consumers beyond Channel::transmit (the link oracle's ground-truth checks,
// the fault injector's radio-wide sweeps and neighbor-aware blackout
// targeting, Network::positionOf) use the same query API instead of reaching
// into radio lists directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

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

  /// Visit every attached radio in attach order (fault sweeps, tests).
  virtual void forEachRadio(const std::function<void(Radio&)>& fn) const = 0;

  virtual std::size_t size() const = 0;
  virtual const char* name() const = 0;

  // --- exact queries (measurement paths; no spatial acceleration) ---

  /// Position of radio `id` at an arbitrary sim time, evaluated directly
  /// from its trajectory (charged to the mobility category like every other
  /// position query). `id` must be attached.
  Vec2 positionAt(net::NodeId id, sim::Time t) const;

  /// True if radios `a` and `b` are within `range` meters of each other at
  /// time `t`. Exact: evaluates both trajectories at `t`.
  bool inRangeAt(net::NodeId a, net::NodeId b, sim::Time t,
                 double range) const;

 protected:
  explicit NeighborIndex(sim::Scheduler& sched) : sched_(sched) {}

  /// Shared id -> radio map for the exact queries; implementations call
  /// this from attach().
  void registerId(Radio* r);

  sim::Scheduler& sched_;

 private:
  std::unordered_map<net::NodeId, Radio*> byId_;
};

/// The original O(N) full scan. Reference implementation and the byte-compare
/// partner for GridNeighborIndex.
class ScanNeighborIndex final : public NeighborIndex {
 public:
  explicit ScanNeighborIndex(sim::Scheduler& sched) : NeighborIndex(sched) {}

  void attach(Radio* r) override;
  void forEachInRange(const Vec2& pos, double range, sim::Time now,
                      const Radio* exclude, RadioVisitor fn) const override;
  std::size_t lastExamined() const override { return lastExamined_; }
  void forEachRadio(const std::function<void(Radio&)>& fn) const override;
  std::size_t size() const override { return radios_.size(); }
  const char* name() const override { return "scan"; }

 private:
  std::vector<Radio*> radios_;
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
  void forEachRadio(const std::function<void(Radio&)>& fn) const override;
  std::size_t size() const override { return slots_.size(); }
  const char* name() const override { return "grid"; }

  /// Test hook: number of full re-buckets performed so far.
  std::uint64_t refreshCount() const { return refreshes_; }

 private:
  struct Slot {
    Radio* radio;
    std::uint64_t cell;  // key of the bucket currently holding this slot
  };

  static std::uint64_t cellKey(const Vec2& p, double cellSize);
  void refresh(sim::Time now) const;

  double cellSize_;
  double speedBound_;
  sim::Time refreshPeriod_;
  // Lazily maintained spatial state (const queries refresh it; the same
  // mutable-cache idiom as Channel::prune).
  mutable std::vector<Slot> slots_;  // by attach order
  mutable std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
      cells_;  // cell key -> slot indices (each vector kept sorted ascending)
  mutable sim::Time lastRefresh_ = sim::Time::zero();
  mutable bool everRefreshed_ = false;
  mutable std::size_t lastExamined_ = 0;
  mutable std::vector<std::uint32_t> scratch_;  // candidate slot indices
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
