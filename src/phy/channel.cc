#include "src/phy/channel.h"

#include <algorithm>

#include "src/phy/radio.h"

namespace manet::phy {

sim::Time Channel::transmit(Radio& sender, const mac::Frame& f) {
  const sim::Time now = sched_.now();
  const sim::Time dur = txDuration(f.bytes());
  const sim::Time end = now + dur;
  const Vec2 pos = index_->positionAt(sender.id(), now);
  const std::uint64_t txId = nextTxId_++;

  prune();
  active_.push_back(ActiveTx{&sender, pos, end});

  // In-range tests use positions at transmission start. Frames last
  // microseconds; node movement within a frame is negligible (< 1 mm at
  // 20 m/s). The index visits receivers in attach (id) order, so delivery
  // ordering — and therefore every downstream tie-break — is identical
  // whichever index implementation is configured.
  //
  // The frame is copied once, into an in-flight record its receivers'
  // rxEnd events share (the sender's copy may be reused). A transmission
  // that reaches no radio never takes a record.
  std::uint32_t rec = kNoRecord;
  index_->forEachInRange(
      pos, cfg_.rangeMeters, now, &sender, [&](Radio& r, double d) {
        Radio* rp = &r;
        sched_.scheduleAt(
            now + cfg_.propagationDelay,
            [rp, txId, d] { rp->rxStart(txId, d); }, prof::Category::kPhy);
        if (rec == kNoRecord) rec = hold(f);
        ++inFlight_[rec].pending;
        sched_.scheduleAt(
            end + cfg_.propagationDelay,
            [this, rp, txId, rec] { endRx(*rp, txId, rec); },
            prof::Category::kPhy);
      });
  return end;
}

std::uint32_t Channel::hold(const mac::Frame& f) {
  if (freeInFlight_.empty()) {
    inFlight_.push_back(InFlight{f, 0});
    return static_cast<std::uint32_t>(inFlight_.size() - 1);
  }
  const std::uint32_t rec = freeInFlight_.back();
  freeInFlight_.pop_back();
  inFlight_[rec].frame = f;
  return rec;
}

void Channel::endRx(Radio& r, std::uint64_t txId, std::uint32_t rec) {
  // Runs for every receiver, up or down, so the count always reaches 0.
  InFlight& tx = inFlight_[rec];
  r.rxEnd(txId, tx.frame);
  if (--tx.pending == 0) {
    tx.frame = mac::Frame{};  // drop the payload with the last reception
    freeInFlight_.push_back(rec);
  }
}

bool Channel::carrierBusy(const Radio& r) const {
  prune();
  const sim::Time now = sched_.now();
  const Vec2 pos = index_->positionAt(r.id(), now);
  for (const ActiveTx& tx : active_) {
    if (tx.sender == &r) return true;  // transmitting ourselves
    if (distance(tx.senderPos, pos) > cfg_.rangeMeters) continue;
    return true;
  }
  return false;
}

sim::Time Channel::busyUntil(const Radio& r) const {
  prune();
  const sim::Time now = sched_.now();
  sim::Time latest = now;
  const Vec2 pos = index_->positionAt(r.id(), now);
  for (const ActiveTx& tx : active_) {
    if (tx.sender != &r && distance(tx.senderPos, pos) > cfg_.rangeMeters) {
      continue;
    }
    latest = std::max(latest, tx.end);
  }
  return latest;
}

void Channel::prune() const {
  const sim::Time now = sched_.now();
  std::erase_if(active_, [now](const ActiveTx& tx) { return tx.end < now; });
}

}  // namespace manet::phy
