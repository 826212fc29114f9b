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
  // Receivers are collected into a free in-flight record, which keeps the
  // frame only if some radio hears it (the sender's copy may be reused).
  if (freeInFlight_.empty()) {
    freeInFlight_.push_back(static_cast<std::uint32_t>(inFlight_.size()));
    inFlight_.emplace_back();
  }
  const std::uint32_t rec = freeInFlight_.back();
  InFlight* const tx = &inFlight_[rec];
  index_->forEachInRange(pos, cfg_.rangeMeters, now, &sender,
                         [tx](Radio& r, double d) {
                           tx->receivers.push_back(Receiver{&r, d});
                         });
  if (tx->receivers.empty()) return end;
  freeInFlight_.pop_back();
  tx->frame = f;

  // Nothing else is scheduled while transmit runs, so the two groups'
  // members hold the (time, seq) positions one rxStart and one rxEnd event
  // per receiver would. rxEnd runs for every receiver, up or down, so the
  // last one always frees the record.
  const auto n = static_cast<std::uint32_t>(tx->receivers.size());
  sched_.scheduleGroup(
      now + cfg_.propagationDelay, n,
      [tx, txId](std::uint32_t i) {
        const Receiver& r = tx->receivers[i];
        r.radio->rxStart(txId, r.distance);
      },
      prof::Category::kPhy);
  sched_.scheduleGroup(
      end + cfg_.propagationDelay, n,
      [this, tx, rec, txId](std::uint32_t i) {
        tx->receivers[i].radio->rxEnd(txId, tx->frame);
        if (i + 1 == tx->receivers.size()) {
          tx->frame = mac::Frame{};  // drop the payload with the last reception
          tx->receivers.clear();
          freeInFlight_.push_back(rec);
        }
      },
      prof::Category::kPhy);
  return end;
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
