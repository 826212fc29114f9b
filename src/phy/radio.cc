#include "src/phy/radio.h"

#include <algorithm>
#include <cmath>

#include "src/phy/channel.h"

namespace manet::phy {

Radio::Radio(net::NodeId id, const mobility::MobilityModel& mobility,
             Channel& channel, sim::Scheduler& sched)
    : id_(id), mobility_(mobility), channel_(channel), sched_(sched) {
  channel_.attach(this);
}

Vec2 Radio::position() const {
  return mobility_.positionAt(sched_.now());
}

sim::Time Radio::startTx(const mac::Frame& f) {
  // Crashed radio: nothing reaches the air. Burn the airtime anyway so the
  // MAC's state machine proceeds into its CTS/ACK timeout paths — that is
  // how neighbors' and our own routing layers learn the "link" is dead.
  if (!up_) {
    txEnd_ = sched_.now() + channel_.txDuration(f.bytes());
    return txEnd_;
  }
  // Half duplex: anything we were receiving is lost.
  for (OngoingRx& rx : ongoing_) rx.corrupt = true;
  txEnd_ = channel_.transmit(*this, f);
  return txEnd_;
}

void Radio::setUp(bool up) {
  if (up_ == up) return;
  up_ = up;
  // Going down kills in-flight receptions; their rxEnd events find no entry
  // and are ignored (also covers receptions spanning the recovery instant).
  if (!up_) ongoing_.clear();
}

bool Radio::transmitting() const { return sched_.now() < txEnd_; }

bool Radio::carrierBusy() const { return channel_.carrierBusy(*this); }

sim::Time Radio::busyUntil() const { return channel_.busyUntil(*this); }

sim::Time Radio::airtime(std::uint32_t bytes) const {
  return channel_.txDuration(bytes);
}

void Radio::rxStart(std::uint64_t txId, double senderDistance) {
  if (!up_) return;  // crashed: deaf
  // Receiving while transmitting always fails (half duplex).
  if (transmitting()) {
    ongoing_.push_back(OngoingRx{txId, true, senderDistance});
    return;
  }
  // Capture effect (as in the CMU ns-2 PHY): an ongoing reception survives
  // an overlapping arrival that is `captureThreshold` times weaker; the
  // weaker arrival is absorbed as noise. Otherwise both frames are lost.
  const phy::PhyConfig& cfg = channel_.config();
  bool newCorrupt = false;
  for (OngoingRx& rx : ongoing_) {
    if (cfg.captureEffect && !rx.corrupt) {
      // power ~ d^-k  =>  p_rx / p_new = (d_new / d_rx)^k
      const double ratio = std::pow(senderDistance / rx.senderDistance,
                                    cfg.pathLossExponent);
      if (ratio >= cfg.captureThreshold) {
        newCorrupt = true;  // existing reception captures; new one is noise
        continue;
      }
    }
    rx.corrupt = true;
    newCorrupt = true;
  }
  ongoing_.push_back(OngoingRx{txId, newCorrupt, senderDistance});
}

void Radio::rxEnd(std::uint64_t txId, const mac::Frame& f) {
  auto it = std::find_if(ongoing_.begin(), ongoing_.end(),
                         [txId](const OngoingRx& rx) {
                           return rx.txId == txId;
                         });
  if (it == ongoing_.end()) return;  // shouldn't happen
  // Transmitting at any point during the reception corrupts it; check again
  // at the end (we may have started transmitting mid-reception).
  const bool corrupt = it->corrupt || transmitting();
  ongoing_.erase(it);
  if (corrupt) {
    ++framesCorrupted_;
    return;
  }
  // Injected channel noise (fault layer): an otherwise-intact frame is lost
  // with noiseProb_. Zero probability (the default) draws nothing, keeping
  // no-fault runs bit-identical.
  if (noiseProb_ > 0.0 && noiseRng_ != nullptr &&
      noiseRng_->bernoulli(noiseProb_)) {
    ++framesNoiseCorrupted_;
    return;
  }
  ++framesDelivered_;
  if (rxHandler_) rxHandler_(f);
}

}  // namespace manet::phy
