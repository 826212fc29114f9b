// A node's half-duplex radio: tracks overlapping receptions to detect
// collisions and delivers intact frames to the MAC.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/mac/frame.h"
#include "src/mobility/mobility_model.h"
#include "src/net/packet.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"

namespace manet::phy {

class Channel;

class Radio {
 public:
  /// Handler for frames that arrive intact (no collision, not while
  /// transmitting). The MAC filters by destination address.
  using RxHandler = std::function<void(const mac::Frame&)>;

  Radio(net::NodeId id, const mobility::MobilityModel& mobility,
        Channel& channel, sim::Scheduler& sched);

  net::NodeId id() const { return id_; }
  /// Position at the scheduler's current time, evaluated from the
  /// trajectory. ScanNeighborIndex calls it for every radio on every query;
  /// Channel reads positions through its NeighborIndex instead.
  Vec2 position() const;
  /// The trajectory this radio rides on (NeighborIndex caches its pieces
  /// and evaluates it for arbitrary-time oracle queries).
  const mobility::MobilityModel& mobility() const { return mobility_; }

  void setReceiveHandler(RxHandler h) { rxHandler_ = std::move(h); }

  /// Transmit a frame (MAC must ensure we are not already transmitting).
  /// Returns the time the transmission ends.
  sim::Time startTx(const mac::Frame& f);

  bool transmitting() const;
  /// Carrier sense including our own transmission.
  bool carrierBusy() const;
  sim::Time busyUntil() const;
  /// Airtime for `bytes` on this radio's channel (PHY overhead included).
  sim::Time airtime(std::uint32_t bytes) const;

  // --- fault injection (src/fault/) ---
  /// Power the radio down/up. While down, nothing is put on the air
  /// (startTx burns the airtime silently, so MAC timeouts fire naturally)
  /// and nothing is received; going down also kills in-flight receptions.
  void setUp(bool up);
  bool up() const { return up_; }
  /// Corrupt each otherwise-intact reception with probability `corruptProb`
  /// (draws from `rng`, which must outlive the setting). Probability 0
  /// disables the draw entirely — the default costs one comparison.
  void setNoise(double corruptProb, sim::Rng* rng) {
    noiseProb_ = corruptProb;
    noiseRng_ = rng;
  }

  // --- called by Channel ---
  /// `senderDistance` is the transmitter's distance at tx start, used for
  /// the capture-effect power comparison.
  void rxStart(std::uint64_t txId, double senderDistance);
  void rxEnd(std::uint64_t txId, const mac::Frame& f);

  // --- introspection for tests ---
  std::uint64_t framesDelivered() const { return framesDelivered_; }
  std::uint64_t framesCorrupted() const { return framesCorrupted_; }
  std::uint64_t framesNoiseCorrupted() const { return framesNoiseCorrupted_; }

 private:
  struct OngoingRx {
    std::uint64_t txId;
    bool corrupt;
    double senderDistance;
  };

  net::NodeId id_;
  const mobility::MobilityModel& mobility_;
  Channel& channel_;
  sim::Scheduler& sched_;
  RxHandler rxHandler_;
  sim::Time txEnd_ = sim::Time::zero();
  std::vector<OngoingRx> ongoing_;
  bool up_ = true;
  double noiseProb_ = 0.0;
  sim::Rng* noiseRng_ = nullptr;
  std::uint64_t framesDelivered_ = 0;
  std::uint64_t framesCorrupted_ = 0;
  std::uint64_t framesNoiseCorrupted_ = 0;
};

}  // namespace manet::phy
