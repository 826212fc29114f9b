#include "src/aodv/aodv_agent.h"

#include <algorithm>
#include <cassert>

namespace manet::aodv {
namespace {

/// Sequence-number comparison with the usual "fresher" semantics (no
/// wraparound handling needed at simulation scales).
bool fresher(std::uint32_t a, std::uint32_t b) { return a > b; }

}  // namespace

AodvAgent::AodvAgent(net::NodeId self, mac::DcfMac& mac,
                     sim::Scheduler& sched, sim::Rng rng,
                     const AodvConfig& cfg, metrics::Metrics* metrics,
                     const metrics::LinkOracle* oracle)
    : self_(self),
      mac_(mac),
      sched_(sched),
      rng_(std::move(rng)),
      cfg_(cfg),
      metrics_(metrics),
      oracle_(oracle),
      sendBuf_(cfg.sendBufferCapacity, cfg.sendBufferTimeout) {
  mac_.setHandlers(mac::DcfMac::Handlers{
      .receive = [this](net::PacketPtr p,
                        net::NodeId from) { onReceive(std::move(p), from); },
      // AODV does not use promiscuous listening.
      .promiscuousTap = nullptr,
      .sendFailed =
          [this](net::PacketPtr p, net::NodeId nextHop) {
            onSendFailed(std::move(p), nextHop);
          },
      .sendOk = nullptr,
  });
  sched_.scheduleAfter(
      cfg_.expirySweepPeriod, [this] { periodicSweep(); },
      prof::Category::kRouting);
}

const AodvAgent::RouteEntry* AodvAgent::route(net::NodeId dst) const {
  auto it = routes_.find(dst);
  return it == routes_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------- sending

void AodvAgent::sendData(net::NodeId dst, std::uint32_t payloadBytes,
                         std::uint32_t flowId, std::uint64_t seqInFlow) {
  if (metrics_) ++metrics_->dataOriginated;
  // manet-lint: allow(causal-id): root origination — new application data
  // starts a causal chain, it has no parent packet
  auto p = net::Packet::make();
  p->kind = net::PacketKind::kData;
  p->src = self_;
  p->dst = dst;
  p->payloadBytes = payloadBytes;
  p->originatedAt = sched_.now();
  p->flowId = flowId;
  p->seqInFlow = seqInFlow;

  auto it = routes_.find(dst);
  if (it != routes_.end() && it->second.valid) {
    // Route-table hit: AODV's analogue of a cache hit.
    if (metrics_) {
      ++metrics_->cacheHits;
      if (oracle_ != nullptr &&
          !oracle_->linkValid(self_, it->second.nextHop, sched_.now())) {
        ++metrics_->invalidCacheHits;
      }
    }
    refreshLifetime(dst);
    mac_.send(std::move(p), it->second.nextHop, /*priority=*/false);
    return;
  }
  const std::uint64_t triggerUid = p->uid;
  auto evicted = sendBuf_.push(std::move(p), dst, sched_.now());
  if (metrics_) metrics_->dropSendBufferOverflow += evicted.size();
  startDiscovery(dst, triggerUid);
}

// ---------------------------------------------------------------- receive

void AodvAgent::onReceive(net::PacketPtr p, net::NodeId from) {
  switch (p->kind) {
    case net::PacketKind::kData:
      handleData(p, from);
      break;
    case net::PacketKind::kRouteRequest:
      handleRreq(p, from);
      break;
    case net::PacketKind::kRouteReply:
      handleRrep(p, from);
      break;
    case net::PacketKind::kRouteError:
      handleRerr(p, from);
      break;
  }
}

void AodvAgent::handleData(const net::PacketPtr& p, net::NodeId from) {
  (void)from;
  if (p->dst == self_) {
    if (metrics_) {
      ++metrics_->dataDelivered;
      metrics_->bytesDelivered += p->payloadBytes;
      // manet-lint: allow(float-time): metrics-only delay sum; never read
      metrics_->delaySumSec += (sched_.now() - p->originatedAt).toSeconds();
    }
    return;
  }
  forwardData(p);
}

void AodvAgent::forwardData(const net::PacketPtr& p) {
  auto it = routes_.find(p->dst);
  if (it == routes_.end() || !it->second.valid) {
    // No route at a forwarder: drop and report unreachability.
    if (metrics_) ++metrics_->dropLinkFailNoSalvage;
    auto err = net::Packet::make();
    err->kind = net::PacketKind::kRouteError;
    err->src = self_;
    err->dst = net::kBroadcast;
    const std::uint32_t deadSeq =
        it != routes_.end() ? it->second.seqNo + 1 : 1;
    err->aodvRerr = net::AodvRerrHdr{{{p->dst, deadSeq}}};
    err->causeUid = p->uid;  // chain the RERR to the undeliverable packet
    mac_.send(std::move(err), net::kBroadcast, /*priority=*/true);
    return;
  }
  refreshLifetime(p->dst);
  // Also refresh the route back to the source (it is clearly in use).
  refreshLifetime(p->src);
  mac_.send(net::clone(*p), it->second.nextHop, /*priority=*/false);
}

// ------------------------------------------------------------------ RREQ

void AodvAgent::handleRreq(const net::PacketPtr& p, net::NodeId from) {
  assert(p->aodvRreq);
  const net::AodvRreqHdr& req = *p->aodvRreq;
  if (req.origin == self_) return;

  // Learn/refresh the route to the previous hop and to the originator.
  updateRoute(from, from, 1, 0, /*validSeq=*/false);
  updateRoute(req.origin, from, req.hopCount + 1, req.originSeq,
              /*validSeq=*/true);

  if (!seenRreqs_.insert(req.origin, req.rreqId)) return;

  if (req.target == self_) {
    // RFC 3561: the destination bumps its sequence number so the reply is
    // at least as fresh as anything the request has seen.
    ownSeq_ = std::max(ownSeq_ + 1, req.targetSeq);
    if (metrics_) ++metrics_->targetRepliesGenerated;
    sendRrep(req.origin,
             net::AodvRrepHdr{.origin = req.origin,
                              .target = self_,
                              .targetSeq = ownSeq_,
                              .hopCount = 0,
                              .fromIntermediate = false},
             p->uid);
    return;
  }

  // Intermediate reply: a valid route at least as fresh as requested.
  if (cfg_.intermediateReplies) {
    auto it = routes_.find(req.target);
    if (it != routes_.end() && it->second.valid && it->second.validSeq &&
        (req.unknownTargetSeq || !fresher(req.targetSeq, it->second.seqNo))) {
      if (metrics_) {
        ++metrics_->cacheRepliesGenerated;
        ++metrics_->cacheHits;
        if (oracle_ != nullptr &&
            !oracle_->linkValid(self_, it->second.nextHop, sched_.now())) {
          ++metrics_->invalidCacheHits;
        }
      }
      sendRrep(req.origin,
               net::AodvRrepHdr{.origin = req.origin,
                                .target = req.target,
                                .targetSeq = it->second.seqNo,
                                .hopCount = it->second.hopCount,
                                .fromIntermediate = true},
               p->uid);
      return;
    }
  }

  if (req.ttl <= 1) return;
  auto fwd = net::clone(*p);
  fwd->aodvRreq->ttl = req.ttl - 1;
  fwd->aodvRreq->hopCount = req.hopCount + 1;
  const auto jitter = sim::Time::nanos(rng_.uniformInt(
      0, std::max<std::int64_t>(1, cfg_.broadcastJitterMax.ns())));
  sched_.scheduleAfter(
      jitter,
      [this, fwd = std::move(fwd)] {
        mac_.send(fwd, net::kBroadcast, /*priority=*/true);
      },
      prof::Category::kRouting);
}

void AodvAgent::sendRrep(net::NodeId toward, const net::AodvRrepHdr& hdr,
                         std::uint64_t causeUid) {
  auto it = routes_.find(toward);
  if (it == routes_.end() || !it->second.valid) return;  // reverse path died
  auto p = net::Packet::make();
  p->kind = net::PacketKind::kRouteReply;
  p->src = self_;
  p->dst = toward;
  p->originatedAt = sched_.now();
  p->aodvRrep = hdr;
  p->causeUid = causeUid;  // reply answers that request
  // Precursor bookkeeping: the reverse next hop will route through us.
  if (hdr.target != self_) {
    auto fwdIt = routes_.find(hdr.target);
    if (fwdIt != routes_.end()) {
      fwdIt->second.precursors.insert(it->second.nextHop);
    }
  }
  mac_.send(std::move(p), it->second.nextHop, /*priority=*/true);
}

// ------------------------------------------------------------------ RREP

void AodvAgent::handleRrep(const net::PacketPtr& p, net::NodeId from) {
  assert(p->aodvRrep);
  const net::AodvRrepHdr& rep = *p->aodvRrep;
  updateRoute(from, from, 1, 0, /*validSeq=*/false);
  // Install/refresh the forward route to the target.
  updateRoute(rep.target, from, rep.hopCount + 1, rep.targetSeq,
              /*validSeq=*/true);

  if (rep.origin == self_) {
    if (metrics_) {
      ++metrics_->repliesReceived;
      if (oracle_ == nullptr || oracle_->linkValid(self_, from, sched_.now())) {
        ++metrics_->goodRepliesReceived;
      }
    }
    endDiscovery(rep.target);
    drainSendBuffer();
    return;
  }

  // Forward toward the originator along the reverse route.
  auto it = routes_.find(rep.origin);
  if (it == routes_.end() || !it->second.valid) return;
  auto fwd = net::clone(*p);
  ++fwd->aodvRrep->hopCount;
  // The node we forward to becomes a precursor of the forward route.
  auto fwdRoute = routes_.find(rep.target);
  if (fwdRoute != routes_.end()) {
    fwdRoute->second.precursors.insert(it->second.nextHop);
  }
  mac_.send(std::move(fwd), it->second.nextHop, /*priority=*/true);
}

// ------------------------------------------------------------------ RERR

void AodvAgent::handleRerr(const net::PacketPtr& p, net::NodeId from) {
  assert(p->aodvRerr);
  std::vector<std::pair<net::NodeId, std::uint32_t>> propagate;
  for (const auto& [dst, seq] : p->aodvRerr->unreachable) {
    auto it = routes_.find(dst);
    if (it == routes_.end() || !it->second.valid) continue;
    if (it->second.nextHop != from) continue;  // not routed via the sender
    it->second.valid = false;
    it->second.seqNo = std::max(it->second.seqNo, seq);
    it->second.validSeq = true;
    if (!it->second.precursors.empty()) propagate.emplace_back(dst, seq);
  }
  if (propagate.empty()) return;
  auto err = net::Packet::make();
  err->kind = net::PacketKind::kRouteError;
  err->src = self_;
  err->dst = net::kBroadcast;
  err->aodvRerr = net::AodvRerrHdr{std::move(propagate)};
  err->causeUid = p->uid;  // propagated RERR descends from the received one
  if (metrics_) ++metrics_->rerrWideRebroadcasts;
  mac_.send(std::move(err), net::kBroadcast, /*priority=*/true);
}

void AodvAgent::onSendFailed(net::PacketPtr p, net::NodeId nextHop) {
  if (metrics_) {
    ++metrics_->linkBreaksDetected;
    if (oracle_ != nullptr &&
        oracle_->linkValid(self_, nextHop, sched_.now())) {
      ++metrics_->fakeLinkBreaks;
    }
  }
  mac_.purgeNextHop(nextHop);
  invalidateVia(nextHop, p->uid);
  if (p->kind == net::PacketKind::kData && metrics_) {
    ++metrics_->dropLinkFailNoSalvage;  // AODV has no salvaging
  }
}

void AodvAgent::invalidateVia(net::NodeId nextHop, std::uint64_t causeUid) {
  std::vector<std::pair<net::NodeId, std::uint32_t>> unreachable;
  for (auto& [dst, entry] : routes_) {
    if (!entry.valid || entry.nextHop != nextHop) continue;
    entry.valid = false;
    ++entry.seqNo;  // invalidation bumps the sequence number (RFC 3561)
    if (!entry.precursors.empty() || dst == nextHop) {
      unreachable.emplace_back(dst, entry.seqNo);
    }
  }
  if (unreachable.empty()) return;
  auto err = net::Packet::make();
  err->kind = net::PacketKind::kRouteError;
  err->src = self_;
  err->dst = net::kBroadcast;
  err->aodvRerr = net::AodvRerrHdr{std::move(unreachable)};
  err->causeUid = causeUid;  // the packet whose failed send exposed the link
  mac_.send(std::move(err), net::kBroadcast, /*priority=*/true);
}

// ------------------------------------------------------------- discovery

void AodvAgent::startDiscovery(net::NodeId target, std::uint64_t causeUid) {
  DiscoveryState& st = discovery_[target];
  if (st.active) return;
  st.active = true;
  st.backoff = cfg_.discoveryTimeout;
  st.causeUid = causeUid;
  if (metrics_) ++metrics_->routeDiscoveriesStarted;
  sendRreq(target);
  st.pendingEvent = sched_.scheduleAfter(
      st.backoff, [this, target] { onDiscoveryTimeout(target); },
      prof::Category::kRouting);
}

void AodvAgent::onDiscoveryTimeout(net::NodeId target) {
  DiscoveryState& st = discovery_[target];
  st.pendingEvent = sim::kInvalidEvent;
  if (!st.active) return;
  auto it = routes_.find(target);
  if ((it != routes_.end() && it->second.valid) ||
      !sendBuf_.hasPacketsFor(target)) {
    endDiscovery(target);
    drainSendBuffer();
    return;
  }
  sendRreq(target);
  st.backoff = std::min(st.backoff + st.backoff, cfg_.discoveryBackoffMax);
  st.pendingEvent = sched_.scheduleAfter(
      st.backoff, [this, target] { onDiscoveryTimeout(target); },
      prof::Category::kRouting);
}

void AodvAgent::endDiscovery(net::NodeId target) {
  auto it = discovery_.find(target);
  if (it == discovery_.end()) return;
  sched_.cancel(it->second.pendingEvent);
  it->second.pendingEvent = sim::kInvalidEvent;
  it->second.active = false;
}

void AodvAgent::sendRreq(net::NodeId target) {
  ++ownSeq_;
  auto p = net::Packet::make();
  p->kind = net::PacketKind::kRouteRequest;
  p->src = self_;
  p->dst = net::kBroadcast;
  p->originatedAt = sched_.now();
  p->causeUid = discovery_[target].causeUid;  // data pkt behind the discovery
  auto it = routes_.find(target);
  const bool haveSeq = it != routes_.end() && it->second.validSeq;
  p->aodvRreq = net::AodvRreqHdr{
      .origin = self_,
      .originSeq = ownSeq_,
      .rreqId = ++rreqCounter_,
      .target = target,
      .targetSeq = haveSeq ? it->second.seqNo : 0,
      .unknownTargetSeq = !haveSeq,
      .hopCount = 0,
      .ttl = cfg_.maxRequestTtl,
  };
  if (metrics_) ++metrics_->floodRequestsSent;
  mac_.send(std::move(p), net::kBroadcast, /*priority=*/true);
}

void AodvAgent::drainSendBuffer() {
  for (net::NodeId target : sendBuf_.destinations()) {
    auto it = routes_.find(target);
    if (it == routes_.end() || !it->second.valid) continue;
    for (auto& entry : sendBuf_.takeForDest(target)) {
      refreshLifetime(target);
      mac_.send(entry.packet, it->second.nextHop, /*priority=*/false);
    }
    endDiscovery(target);
  }
}

// ------------------------------------------------------------- route table

bool AodvAgent::updateRoute(net::NodeId dst, net::NodeId nextHop,
                            std::uint8_t hopCount, std::uint32_t seqNo,
                            bool validSeq) {
  if (dst == self_) return false;
  auto [it, inserted] = routes_.try_emplace(dst);
  RouteEntry& e = it->second;
  const bool accept =
      inserted || !e.valid ||
      (validSeq && e.validSeq && fresher(seqNo, e.seqNo)) ||
      (validSeq && !e.validSeq) ||
      (validSeq == e.validSeq && seqNo == e.seqNo &&
       hopCount < e.hopCount);
  if (!accept) {
    // Same-or-older information: still refresh the lifetime of an
    // identical next hop (the neighbor is clearly alive).
    if (e.valid && e.nextHop == nextHop) refreshLifetime(dst);
    return false;
  }
  e.nextHop = nextHop;
  e.hopCount = hopCount;
  if (validSeq) {
    e.seqNo = std::max(e.seqNo, seqNo);
    e.validSeq = true;
  }
  e.valid = true;
  e.expiresAt = sched_.now() + cfg_.activeRouteTimeout;
  return true;
}

void AodvAgent::refreshLifetime(net::NodeId dst) {
  auto it = routes_.find(dst);
  if (it != routes_.end() && it->second.valid) {
    it->second.expiresAt = sched_.now() + cfg_.activeRouteTimeout;
  }
}

void AodvAgent::periodicSweep() {
  const sim::Time now = sched_.now();
  const auto expired = sendBuf_.expire(now);
  if (metrics_) metrics_->dropSendBufferTimeout += expired.size();
  std::size_t invalidated = 0;
  for (auto& [dst, entry] : routes_) {
    if (entry.valid && entry.expiresAt <= now) {
      entry.valid = false;
      ++entry.seqNo;
      ++invalidated;
    }
  }
  if (metrics_) metrics_->expiredLinks += invalidated;
  for (auto& [target, st] : discovery_) {
    if (!st.active && sendBuf_.hasPacketsFor(target)) startDiscovery(target);
  }
  sched_.scheduleAfter(
      cfg_.expirySweepPeriod, [this] { periodicSweep(); },
      prof::Category::kRouting);
}

}  // namespace manet::aodv
