#include "src/mac/dcf_mac.h"

#include <algorithm>
#include <cassert>

namespace manet::mac {

DcfMac::DcfMac(net::NodeId id, phy::Radio& radio, sim::Scheduler& sched,
               sim::Rng rng, const MacConfig& cfg, metrics::Metrics* metrics,
               telemetry::Tracer* tracer)
    : id_(id),
      radio_(radio),
      sched_(sched),
      rng_(std::move(rng)),
      cfg_(cfg),
      metrics_(metrics),
      tracer_(tracer),
      cw_(cfg.cwMin) {
  radio_.setReceiveHandler([this](const Frame& f) { onFrame(f); });
}

sim::Time DcfMac::airtime(std::uint32_t bytes) const {
  return radio_.airtime(bytes);
}

sim::Time DcfMac::ctsTimeout() const {
  return cfg_.sifs + airtime(kCtsBytes) + cfg_.timeoutSlack;
}

sim::Time DcfMac::ackTimeoutFor(std::uint32_t) const {
  return cfg_.sifs + airtime(kAckBytes) + cfg_.timeoutSlack;
}

void DcfMac::send(net::PacketPtr pkt, net::NodeId nextHop, bool priority) {
  if (queue_.size() >= cfg_.queueCapacity) {
    if (metrics_) ++metrics_->dropIfqFull;
    if (tracer_ && tracer_->enabled() && pkt) {
      tracer_->emit(telemetry::packetRecord(
          telemetry::TraceEvent::kPktDrop, sched_.now(), id_, *pkt,
          telemetry::DropReason::kIfqFull));
    }
    return;
  }
  QueuedPacket qp{std::move(pkt), nextHop};
  qp.priority = priority;
  qp.seq = seqCounter_++;
  if (priority) {
    // Insert after the in-flight head (if any) and after earlier priority
    // packets, but ahead of all buffered data (ns-2 CMUPriQueue behaviour).
    std::size_t pos = state_ == State::kIdle ? 0 : 1;
    while (pos < queue_.size() && queue_[pos].priority) ++pos;
    queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(pos),
                  std::move(qp));
  } else {
    queue_.push_back(std::move(qp));
  }
  startAccessIfIdle();
}

std::vector<QueuedPacket> DcfMac::purgeNextHop(net::NodeId nextHop) {
  std::vector<QueuedPacket> removed;
  const std::size_t keepHead = state_ == State::kIdle ? 0 : 1;
  for (std::size_t i = queue_.size(); i-- > keepHead;) {
    if (queue_[i].nextHop == nextHop) {
      removed.push_back(std::move(queue_[i]));
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  std::reverse(removed.begin(), removed.end());  // restore FIFO order
  return removed;
}

void DcfMac::flushQueue() {
  const std::size_t keepHead = state_ == State::kIdle ? 0 : 1;
  while (queue_.size() > keepHead) {
    const QueuedPacket qp = std::move(queue_.back());
    queue_.pop_back();
    if (metrics_) ++metrics_->dropNodeDown;
    if (tracer_ && tracer_->enabled() && qp.packet) {
      tracer_->emit(telemetry::packetRecord(
          telemetry::TraceEvent::kPktDrop, sched_.now(), id_, *qp.packet,
          telemetry::DropReason::kNodeDown));
    }
  }
}

void DcfMac::startAccessIfIdle() {
  if (state_ != State::kIdle || queue_.empty()) return;
  beginContention();
}

void DcfMac::beginContention() {
  state_ = State::kContending;
  backoffSlots_ = static_cast<std::uint32_t>(
      rng_.uniformInt(0, static_cast<std::int64_t>(cw_)));
  scheduleAttempt();
}

void DcfMac::scheduleAttempt() {
  sched_.cancel(pendingEvent_);
  const sim::Time base =
      std::max({sched_.now(), navUntil_, radio_.busyUntil()});
  const sim::Time at =
      base + cfg_.difs + cfg_.slot * static_cast<double>(backoffSlots_);
  pendingEvent_ = sched_.scheduleAt(at, [this] { attempt(); },
                                   prof::Category::kMac);
}

void DcfMac::attempt() {
  pendingEvent_ = sim::kInvalidEvent;
  if (state_ != State::kContending || queue_.empty()) return;
  if (radio_.carrierBusy() || sched_.now() < navUntil_) {
    scheduleAttempt();  // medium became busy again: re-defer
    return;
  }
  transmitHeadOfLine();
}

void DcfMac::transmitHeadOfLine() {
  const QueuedPacket& head = queue_.front();
  if (head.nextHop == net::kBroadcast) {
    Frame f;
    f.type = FrameType::kData;
    f.src = id_;
    f.dst = net::kBroadcast;
    f.seq = head.seq;
    f.packet = head.packet;
    countFrameTx(f);
    state_ = State::kSending;
    const sim::Time end = radio_.startTx(f);
    pendingEvent_ = sched_.scheduleAt(
        end, [this] { finishCurrent(true); }, prof::Category::kMac);
    return;
  }

  Frame data;
  data.type = FrameType::kData;
  data.packet = head.packet;
  const bool useRts = data.bytes() >= cfg_.rtsThresholdBytes;
  if (useRts) {
    Frame rts;
    rts.type = FrameType::kRts;
    rts.src = id_;
    rts.dst = head.nextHop;
    rts.retry = shortRetries_ > 0;
    rts.duration = cfg_.sifs * 3.0 + airtime(kCtsBytes) +
                   airtime(kMacDataHeaderBytes + head.packet->wireBytes()) +
                   airtime(kAckBytes);
    countFrameTx(rts);
    state_ = State::kAwaitCts;
    const sim::Time end = radio_.startTx(rts);
    pendingEvent_ = sched_.scheduleAt(
        end + ctsTimeout(), [this] { onCtsTimeout(); },
        prof::Category::kMac);
  } else {
    sendDataFrame();
  }
}

void DcfMac::sendDataFrame() {
  assert(!queue_.empty());
  const QueuedPacket& head = queue_.front();
  Frame f;
  f.type = FrameType::kData;
  f.src = id_;
  f.dst = head.nextHop;
  f.seq = head.seq;
  f.retry = longRetries_ > 0 || shortRetries_ > 0;
  f.packet = head.packet;
  f.duration = cfg_.sifs + airtime(kAckBytes);
  countFrameTx(f);
  state_ = State::kAwaitAck;
  const sim::Time end = radio_.startTx(f);
  pendingEvent_ = sched_.scheduleAt(
      end + ackTimeoutFor(f.bytes()), [this] { onAckTimeout(); },
      prof::Category::kMac);
}

void DcfMac::sendControl(FrameType type, net::NodeId dst,
                         sim::Time duration) {
  // CTS/ACK responses: sent SIFS after the triggering frame, without
  // contention, per the standard. If we happen to be transmitting (rare
  // pathological overlap) the response is simply lost — the peer times out.
  if (radio_.transmitting()) return;
  Frame f;
  f.type = type;
  f.src = id_;
  f.dst = dst;
  f.duration = duration;
  countFrameTx(f);
  radio_.startTx(f);
}

void DcfMac::onFrame(const Frame& f) {
  const sim::Time now = sched_.now();
  if (f.dst == id_) {
    switch (f.type) {
      case FrameType::kRts:
        // Respond only if we are not mid-exchange and our NAV allows it.
        if ((state_ != State::kIdle && state_ != State::kContending) ||
            now < navUntil_) {
          if (metrics_) ++metrics_->rtsIgnoredBusy;
        } else {
          const sim::Time ctsDur =
              f.duration - cfg_.sifs - airtime(kCtsBytes);
          const net::NodeId peer = f.src;
          sched_.scheduleAfter(
              cfg_.sifs,
              [this, peer, ctsDur] {
                sendControl(FrameType::kCts, peer, ctsDur);
              },
              prof::Category::kMac);
        }
        break;
      case FrameType::kCts:
        if (state_ == State::kAwaitCts) {
          sched_.cancel(pendingEvent_);
          pendingEvent_ = sim::kInvalidEvent;
          sched_.scheduleAfter(
              cfg_.sifs,
              [this] {
                if (state_ == State::kAwaitCts && !queue_.empty()) {
                  sendDataFrame();
                }
              },
              prof::Category::kMac);
        }
        break;
      case FrameType::kData: {
        const net::NodeId peer = f.src;
        const sim::Time ackDur = sim::Time::zero();
        sched_.scheduleAfter(
            cfg_.sifs,
            [this, peer, ackDur] {
              sendControl(FrameType::kAck, peer, ackDur);
            },
            prof::Category::kMac);
        // Filter duplicates created by lost ACKs.
        auto it = lastDeliveredSeq_.find(f.src);
        if (f.retry && it != lastDeliveredSeq_.end() && it->second == f.seq) {
          if (metrics_) ++metrics_->dropMacDuplicate;
          if (tracer_ && tracer_->enabled() && f.packet) {
            tracer_->emit(telemetry::packetRecord(
                telemetry::TraceEvent::kPktDrop, sched_.now(), id_, *f.packet,
                telemetry::DropReason::kMacDuplicate));
          }
          break;
        }
        lastDeliveredSeq_[f.src] = f.seq;
        if (handlers_.receive && f.packet) handlers_.receive(f.packet, f.src);
        break;
      }
      case FrameType::kAck:
        if (state_ == State::kAwaitAck) {
          sched_.cancel(pendingEvent_);
          pendingEvent_ = sim::kInvalidEvent;
          finishCurrent(true);
        }
        break;
    }
    return;
  }

  if (f.dst == net::kBroadcast) {
    if (f.type == FrameType::kData && handlers_.receive && f.packet) {
      handlers_.receive(f.packet, f.src);
    }
    return;
  }

  // Overheard frame for someone else: honor its NAV reservation and hand
  // data frames to the promiscuous tap (DSR snooping).
  //
  // 802.11 NAV-reset rule, approximated: a station that hears only an RTS
  // (but never the CTS) must not reserve the medium for the whole exchange,
  // or dead exchanges wedge the neighborhood. Reserve just the CTS-response
  // window for RTS frames; the CTS and DATA frames (re)extend the NAV for
  // exchanges that actually proceed.
  sim::Time reserve = f.duration;
  if (f.type == FrameType::kRts) {
    reserve = std::min(reserve, cfg_.sifs * 2.0 + airtime(kCtsBytes) +
                                    cfg_.slot * 2.0);
  }
  navUntil_ = std::max(navUntil_, now + reserve);
  if (f.type == FrameType::kData && handlers_.promiscuousTap) {
    handlers_.promiscuousTap(f);
  }
}

void DcfMac::onCtsTimeout() {
  pendingEvent_ = sim::kInvalidEvent;
  if (state_ != State::kAwaitCts) return;
  if (metrics_) ++metrics_->ctsTimeouts;
  retryOrFail(/*shortRetry=*/true);
}

void DcfMac::onAckTimeout() {
  pendingEvent_ = sim::kInvalidEvent;
  if (state_ != State::kAwaitAck) return;
  if (metrics_) ++metrics_->ackTimeouts;
  retryOrFail(/*shortRetry=*/false);
}

void DcfMac::retryOrFail(bool shortRetry) {
  int& counter = shortRetry ? shortRetries_ : longRetries_;
  const int limit = shortRetry ? cfg_.shortRetryLimit : cfg_.longRetryLimit;
  ++counter;
  if (counter >= limit) {
    finishCurrent(false);
    return;
  }
  cw_ = std::min(cw_ * 2 + 1, cfg_.cwMax);
  beginContention();
}

void DcfMac::finishCurrent(bool success) {
  sched_.cancel(pendingEvent_);
  pendingEvent_ = sim::kInvalidEvent;
  assert(!queue_.empty());
  QueuedPacket done = std::move(queue_.front());
  queue_.pop_front();
  state_ = State::kIdle;
  cw_ = cfg_.cwMin;
  shortRetries_ = 0;
  longRetries_ = 0;
  // Callbacks may enqueue new packets or purge the queue; run them with the
  // MAC in a consistent idle state.
  if (done.nextHop != net::kBroadcast) {
    if (success) {
      if (handlers_.sendOk) handlers_.sendOk(done.packet, done.nextHop);
    } else {
      if (handlers_.sendFailed) {
        handlers_.sendFailed(done.packet, done.nextHop);
      }
    }
  }
  startAccessIfIdle();
}

void DcfMac::countFrameTx(const Frame& f) {
  if (!metrics_) return;
  switch (f.type) {
    case FrameType::kRts:
      ++metrics_->rtsTx;
      return;
    case FrameType::kCts:
      ++metrics_->ctsTx;
      return;
    case FrameType::kAck:
      ++metrics_->ackTx;
      return;
    case FrameType::kData:
      break;
  }
  if (!f.packet) return;
  switch (f.packet->kind) {
    case net::PacketKind::kData:
      ++metrics_->dataFrameTx;
      break;
    case net::PacketKind::kRouteRequest:
      ++metrics_->rreqTx;
      break;
    case net::PacketKind::kRouteReply:
      ++metrics_->rrepTx;
      break;
    case net::PacketKind::kRouteError:
      ++metrics_->rerrTx;
      break;
  }
}

}  // namespace manet::mac
