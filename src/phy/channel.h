// Shared wireless channel with a disc propagation model.
//
// Models the paper's WaveLAN radio: 2 Mb/s shared medium, 250 m nominal
// range. Every transmission is heard by all radios within range of the
// transmitter's position at transmission start; overlapping receptions at a
// radio corrupt each other (receiver-side collision), which is what makes
// hidden terminals, request storms and congestion behave realistically.
//
// Each transmission's receptions are two scheduler groups
// (sim::Scheduler::scheduleGroup): one rxStart per receiver at the start
// instant and one rxEnd per receiver at the end instant, in attach order.
// Every reception is still its own dispatched event.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/mac/frame.h"
#include "src/net/packet.h"
#include "src/phy/neighbor_index.h"
#include "src/sim/scheduler.h"
#include "src/util/vec2.h"

namespace manet::phy {

struct PhyConfig {
  double rangeMeters = 250.0;   // nominal WaveLAN range
  double bitRateBps = 2e6;      // nominal WaveLAN bit rate
  /// Fixed per-frame physical-layer overhead (PLCP preamble + header time).
  sim::Time phyOverhead = sim::Time::micros(192);
  /// Propagation delay; 250 m at light speed is ~0.83 us.
  sim::Time propagationDelay = sim::Time::micros(1);
  /// Capture effect, as in the CMU ns-2 wireless PHY: an ongoing reception
  /// survives an overlapping arrival whose power is `captureThreshold`
  /// times weaker (power falls off as distance^-pathLossExponent).
  bool captureEffect = true;
  double captureThreshold = 10.0;  // ns-2 CPThresh
  double pathLossExponent = 4.0;   // two-ray ground regime at these ranges

  /// Which neighbor index the channel delivers broadcasts through. Both
  /// kinds produce byte-identical runs (the grid confirms candidates with
  /// exact distance checks and visits them in scan order); the grid makes
  /// per-frame delivery O(in-range) instead of O(N).
  NeighborIndexKind neighborIndex = NeighborIndexKind::kGrid;
  /// Fastest node movement the grid plans for (m/s). Scenario raises it to
  /// the configured maxSpeed automatically; raise it manually when driving
  /// Network directly with faster custom mobility.
  double indexSpeedBound = 50.0;
  /// How stale grid buckets may get before a query triggers a re-bucket.
  sim::Time indexRefreshPeriod = sim::Time::seconds(1);
};

class Radio;

class Channel {
 public:
  Channel(sim::Scheduler& sched, PhyConfig cfg)
      : sched_(sched),
        cfg_(cfg),
        index_(makeNeighborIndex(cfg.neighborIndex, sched, cfg.rangeMeters,
                                 cfg.indexSpeedBound,
                                 cfg.indexRefreshPeriod)) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Register a radio. The pointer must outlive the channel's use.
  void attach(Radio* r) { index_->attach(r); }

  /// The spatial index every neighbor query goes through — transmission
  /// delivery here, ground-truth link checks in metrics::LinkOracle.
  NeighborIndex& neighborIndex() { return *index_; }
  const NeighborIndex& neighborIndex() const { return *index_; }

  /// Begin transmitting `f` from `sender`; schedules reception start/end at
  /// every radio in range as one rxStart and one rxEnd group, both reading
  /// one copy of `f` and one receiver list. Returns when the transmission
  /// will end.
  sim::Time transmit(Radio& sender, const mac::Frame& f);

  /// Carrier sense for `r`: true if any ongoing transmission (including its
  /// own) is audible at `r` right now.
  bool carrierBusy(const Radio& r) const;

  /// Latest end time among transmissions currently audible at `r`
  /// (now() if the medium is free). MAC uses this to re-defer.
  sim::Time busyUntil(const Radio& r) const;

  /// Airtime for a frame of `bytes` bytes, including PHY overhead.
  sim::Time txDuration(std::uint32_t bytes) const {
    return cfg_.phyOverhead +
           // manet-lint: allow(float-time): airtime from a constant bit rate;
           // fixed-op, same inputs -> same duration on every host.
           sim::Time::fromSeconds(static_cast<double>(bytes) * 8.0 /
                                  cfg_.bitRateBps);
  }

  const PhyConfig& config() const { return cfg_; }
  sim::Scheduler& scheduler() { return sched_; }
  /// In-flight records allocated so far: the most transmissions ever in
  /// the air at once, since a record is reused once its last rxEnd ran.
  std::size_t inFlightRecords() const { return inFlight_.size(); }

 private:
  struct ActiveTx {
    const Radio* sender;
    Vec2 senderPos;
    sim::Time end;
  };

  struct Receiver {
    Radio* radio;
    double distance;  // from the sender at transmission start
  };
  /// One transmission's frame and receivers (attach order), read by its
  /// rxStart and rxEnd groups; member i is receiver i.
  struct InFlight {
    mac::Frame frame;
    std::vector<Receiver> receivers;
  };

  void prune() const;

  sim::Scheduler& sched_;
  PhyConfig cfg_;
  std::unique_ptr<NeighborIndex> index_;
  mutable std::vector<ActiveTx> active_;
  /// In-flight records, recycled through freeInFlight_ (a freed record is
  /// empty). A deque, so a record stays put while a receive handler that
  /// reads it transmits.
  std::deque<InFlight> inFlight_;
  std::vector<std::uint32_t> freeInFlight_;
  std::uint64_t nextTxId_ = 1;
};

}  // namespace manet::phy
