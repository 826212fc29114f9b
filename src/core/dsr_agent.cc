#include "src/core/dsr_agent.h"

#include <algorithm>
#include <cassert>

#include "src/core/cache_factory.h"
#include "src/util/logging.h"

namespace manet::core {
namespace {

constexpr std::size_t kSeenTableCapacity = 4096;
/// Minimum spacing between gratuitous (route-shortening) replies to the
/// same route source.
constexpr sim::Time kGratReplyHoldoff = sim::Time::seconds(1);

std::uint64_t seenKey(net::NodeId a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

std::vector<net::NodeId> reversed(std::span<const net::NodeId> hops) {
  return {hops.rbegin(), hops.rend()};
}

}  // namespace

DsrAgent::DsrAgent(net::NodeId self, mac::DcfMac& mac, sim::Scheduler& sched,
                   sim::Rng rng, const DsrConfig& cfg,
                   metrics::Metrics* metrics,
                   const metrics::LinkOracle* oracle,
                   telemetry::Tracer* tracer)
    : self_(self),
      mac_(mac),
      sched_(sched),
      rng_(std::move(rng)),
      cfg_(cfg),
      metrics_(metrics),
      oracle_(oracle),
      tracer_(tracer),
      cache_(makeRouteCache(cfg, self)),
      neg_(cfg.negCacheCapacity, cfg.negCacheTtl),
      adaptive_(cfg.adaptiveAlpha, cfg.adaptiveMinTimeout),
      sendBuf_(cfg.sendBufferCapacity, cfg.sendBufferTimeout) {
  cache_->bindTracer(tracer_, self_);
  neg_.bindTracer(tracer_, self_);
  mac_.setHandlers(mac::DcfMac::Handlers{
      .receive = [this](net::PacketPtr p,
                        net::NodeId from) { onReceive(std::move(p), from); },
      .promiscuousTap = [this](const mac::Frame& f) { onTap(f); },
      .sendFailed =
          [this](net::PacketPtr p, net::NodeId nextHop) {
            onSendFailed(std::move(p), nextHop);
          },
      .sendOk = nullptr,
  });
  if (cfg_.expiry != ExpiryMode::kNone) {
    sched_.scheduleAfter(
        cfg_.expiryCheckPeriod, [this] { periodicExpiry(); },
        prof::Category::kRouting);
  }
  sched_.scheduleAfter(
      sim::Time::seconds(1), [this] { periodicBufferSweep(); },
      prof::Category::kRouting);
}

void DsrAgent::wipeCaches() {
  cache_->clear();
  neg_.clear();
  forwardedLinks_.clear();
}

sim::Time DsrAgent::currentExpiryTimeout() const {
  switch (cfg_.expiry) {
    case ExpiryMode::kNone:
      return sim::Time::max();
    case ExpiryMode::kStatic:
      return cfg_.staticTimeout;
    case ExpiryMode::kAdaptive:
      return adaptive_.timeout(sched_.now());
  }
  return sim::Time::max();
}

// ---------------------------------------------------------------- sending

void DsrAgent::sendData(net::NodeId dst, std::uint32_t payloadBytes,
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
  tracePacketEvent(telemetry::TraceEvent::kPktOriginate, *p);

  auto hit = lookupRoute(dst);
  if (hit) {
    recordCacheHit(*hit);
    p->routeProv = hit->prov;
    p->route = net::SourceRoute{std::move(hit->hops), 0};
    transmitAlongRoute(std::move(p));
    return;
  }
  if (tracing()) {
    telemetry::TraceRecord miss;
    miss.at = sched_.now();
    miss.event = telemetry::TraceEvent::kCacheMiss;
    miss.node = self_;
    miss.src = self_;
    miss.dst = dst;
    tracer_->emit(miss);
  }
  const std::uint64_t triggerUid = p->uid;
  auto evicted = sendBuf_.push(std::move(p), dst, sched_.now());
  if (prof::Profiler* pr = sched_.profiler()) {
    pr->notePeak(prof::Gauge::kSendBufOccupancy, sendBuf_.size());
  }
  if (metrics_) metrics_->dropSendBufferOverflow += evicted.size();
  for (const auto& e : evicted) {
    if (e.packet) {
      tracePacketEvent(telemetry::TraceEvent::kPktDrop, *e.packet,
                       telemetry::DropReason::kSendBufferOverflow);
    }
  }
  startDiscovery(dst, triggerUid);
}

void DsrAgent::sendPacket(std::shared_ptr<net::Packet> p) {
  assert(p->kind == net::PacketKind::kData && p->src == self_);
  if (metrics_) ++metrics_->dataOriginated;
  p->originatedAt = sched_.now();
  const net::NodeId dst = p->dst;
  tracePacketEvent(telemetry::TraceEvent::kPktOriginate, *p);
  auto hit = lookupRoute(dst);
  if (hit) {
    recordCacheHit(*hit);
    p->routeProv = hit->prov;
    p->route = net::SourceRoute{std::move(hit->hops), 0};
    transmitAlongRoute(std::move(p));
    return;
  }
  if (tracing()) {
    telemetry::TraceRecord miss;
    miss.at = sched_.now();
    miss.event = telemetry::TraceEvent::kCacheMiss;
    miss.node = self_;
    miss.src = self_;
    miss.dst = dst;
    tracer_->emit(miss);
  }
  const std::uint64_t triggerUid = p->uid;
  auto evicted = sendBuf_.push(std::move(p), dst, sched_.now());
  if (prof::Profiler* pr = sched_.profiler()) {
    pr->notePeak(prof::Gauge::kSendBufOccupancy, sendBuf_.size());
  }
  if (metrics_) metrics_->dropSendBufferOverflow += evicted.size();
  for (const auto& e : evicted) {
    if (e.packet) {
      tracePacketEvent(telemetry::TraceEvent::kPktDrop, *e.packet,
                       telemetry::DropReason::kSendBufferOverflow);
    }
  }
  startDiscovery(dst, triggerUid);
}

void DsrAgent::transmitAlongRoute(std::shared_ptr<net::Packet> p) {
  assert(p->route && !p->route->atDestination());
  assert(p->route->hops[p->route->cursor] == self_);
  // Timer-based expiry "use" semantics, per the paper: the timestamp is
  // refreshed when a route is seen in a unicast packet *forwarded by the
  // node* (cursor > 0). Origination does not count unless the config says
  // so — this is what makes tiny timeouts expensive (the source re-discovers
  // its own active route every T), reproducing the paper's Fig. 1 shape.
  if (cfg_.expiry != ExpiryMode::kNone &&
      (p->route->cursor > 0 || cfg_.expiryCountsOrigination)) {
    cache_->markLinksUsed(p->route->hops, sched_.now());
  }
  const net::NodeId nextHop = p->route->nextHop();
  auto sent = net::clone(*p);
  ++sent->route->cursor;  // cursor points at the receiver while in flight
  const bool priority = sent->kind != net::PacketKind::kData;
  mac_.send(std::move(sent), nextHop, priority);
}

// ---------------------------------------------------------------- receive

void DsrAgent::onReceive(net::PacketPtr p, net::NodeId from) {
  // Hearing a neighbor is positive evidence the link to it works: lift any
  // (possibly congestion-induced) quarantine.
  if (cfg_.negativeCache) neg_.erase(net::LinkId{self_, from});
  switch (p->kind) {
    case net::PacketKind::kData:
      handleData(p);
      break;
    case net::PacketKind::kRouteRequest:
      handleRequest(p, from);
      break;
    case net::PacketKind::kRouteReply:
      handleReply(p);
      break;
    case net::PacketKind::kRouteError:
      if (p->route) {
        handleErrorUnicast(p);
      } else {
        handleErrorBroadcast(p);
      }
      break;
  }
}

void DsrAgent::handleData(const net::PacketPtr& p) {
  assert(p->route);
  const auto& hops = p->route->hops;
  if (p->route->hops[p->route->cursor] != self_) return;  // stale delivery

  // Forwarding a unicast source-routed packet: mark its links used (read
  // only by timer-based expiry) and, with wider error notification,
  // remember the links for the rebroadcast predicate (its only reader).
  if (cfg_.expiry != ExpiryMode::kNone) {
    cache_->markLinksUsed(hops, sched_.now());
  }
  if (cfg_.widerErrorNotification) {
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      forwardedLinks_.insert(net::LinkId{hops[i], hops[i + 1]});
    }
  }

  if (p->route->atDestination()) {
    if (metrics_) {
      ++metrics_->dataDelivered;
      metrics_->bytesDelivered += p->payloadBytes;
      // manet-lint: allow(float-time): metrics-only delay sum; never read
      metrics_->delaySumSec += (sched_.now() - p->originatedAt).toSeconds();
    }
    tracePacketEvent(telemetry::TraceEvent::kPktDeliver, *p,
                     telemetry::DropReason::kNone,
                     (sched_.now() - p->originatedAt).ns() / 1000);
    // The destination also learns the (reversed) route back to the source.
    cacheRoute(reversed(hops), net::RouteOrigin::kDelivered);
    for (const DeliveryHandler& h : deliveryHandlers_) h(*p);
    return;
  }

  // A forwarding node caches the rest of the route it is relaying.
  cacheRoute(std::span<const net::NodeId>(hops).subspan(p->route->cursor),
             net::RouteOrigin::kForwarded);

  forwardData(p);
}

void DsrAgent::forwardData(const net::PacketPtr& p) {
  const auto& hops = p->route->hops;
  // Negative cache rule: never forward over a link known to be broken —
  // drop and report instead, so the stale route is purged at the source.
  if (cfg_.negativeCache) {
    for (std::size_t i = p->route->cursor; i + 1 < hops.size(); ++i) {
      const net::LinkId link{hops[i], hops[i + 1]};
      if (neg_.contains(link, sched_.now())) {
        if (metrics_) ++metrics_->dropNegativeCache;
        // detail carries the quarantine entry's provenance id: the drop has
        // two causes — the stale route entry (prov fields) and the negative
        // cache entry that intercepted it (detail).
        tracePacketEvent(
            telemetry::TraceEvent::kPktDrop, *p,
            telemetry::DropReason::kNegativeCache,
            static_cast<std::int64_t>(
                neg_.provenance(link, sched_.now()).id));
        originateError(link, p.get());
        return;
      }
    }
  }
  tracePacketEvent(telemetry::TraceEvent::kPktForward, *p);
  transmitAlongRoute(net::clone(*p));
}

// ---------------------------------------------------------- route requests

void DsrAgent::handleRequest(const net::PacketPtr& p, net::NodeId from) {
  (void)from;  // route record, not MAC sender, names the previous hop
  assert(p->rreq);
  const net::RouteRequestHdr& req = *p->rreq;
  if (req.origin == self_) return;

  // Gratuitous route repair: the origin piggybacked a recent route error.
  if (req.piggybackedError) {
    noteBrokenLink(*req.piggybackedError,
                   net::RouteOrigin::kPiggybackedRepair);
  }

  // Loop check: we are already on the accumulated path.
  if (std::find(req.path.begin(), req.path.end(), self_) != req.path.end()) {
    return;
  }

  // Learn the reverse route back to the origin (links are bidirectional
  // under 802.11's RTS/CTS/ACK handshake).
  {
    std::vector<net::NodeId> back;
    back.reserve(req.path.size() + 1);
    back.push_back(self_);
    back.insert(back.end(), req.path.rbegin(), req.path.rend());
    cacheRoute(back, net::RouteOrigin::kReverseRequest);
  }

  // The target answers every copy of the request (that is how the origin
  // learns multiple disjoint routes), and never propagates it.
  if (req.target == self_) {
    std::vector<net::NodeId> full = req.path;
    full.push_back(self_);
    if (metrics_) ++metrics_->targetRepliesGenerated;
    // Freshness tagging: the target certifies this reply as the newest
    // word on routes to itself.
    const std::uint32_t stamp =
        cfg_.freshnessTagging ? ++ownFreshness_ : 0;
    sendReply(full, reversed(full), /*fromCache=*/false, stamp,
              /*causeUid=*/p->uid);
    return;
  }

  if (requestSeen(req.origin, req.id)) return;
  rememberRequest(req.origin, req.id);

  // Reply from cache: quenches the flood at this node.
  if (cfg_.replyFromCache) {
    if (auto cached = lookupRoute(req.target)) {
      std::vector<net::NodeId> full = req.path;
      full.insert(full.end(), cached->hops.begin(), cached->hops.end());
      if (!net::routeHasDuplicates(full)) {
        recordCacheHit(*cached);
        if (metrics_) ++metrics_->cacheRepliesGenerated;
        std::vector<net::NodeId> back = req.path;
        back.push_back(self_);
        // A cached reply can only vouch for the freshness it learned.
        std::uint32_t stamp = 0;
        if (cfg_.freshnessTagging) {
          auto it = freshestSeen_.find(req.target);
          if (it != freshestSeen_.end()) stamp = it->second;
        }
        sendReply(std::move(full), reversed(back), /*fromCache=*/true,
                  stamp, /*causeUid=*/p->uid, cached->prov);
        return;
      }
    }
  }

  if (req.ttl <= 1) return;  // non-propagating request dies here

  // Rebroadcast with ourselves appended, after a small jitter that breaks
  // flood synchronization.
  auto fwd = net::clone(*p);
  fwd->rreq->path.push_back(self_);
  fwd->rreq->ttl = req.ttl - 1;
  const auto jitter = sim::Time::nanos(rng_.uniformInt(
      0, std::max<std::int64_t>(1, cfg_.broadcastJitterMax.ns())));
  sched_.scheduleAfter(
      jitter,
      [this, fwd = std::move(fwd)] {
        mac_.send(fwd, net::kBroadcast, /*priority=*/true);
      },
      prof::Category::kRouting);
}

void DsrAgent::sendReply(std::vector<net::NodeId> fullRoute,
                         std::vector<net::NodeId> backPath, bool fromCache,
                         std::uint32_t freshness, std::uint64_t causeUid,
                         net::RouteProvenance reportedProv) {
  assert(backPath.front() == self_);
  auto p = net::Packet::make();
  p->kind = net::PacketKind::kRouteReply;
  p->src = self_;
  p->dst = backPath.back();
  p->originatedAt = sched_.now();
  p->causeUid = causeUid;
  // For cache-served replies, record which cache entry produced the
  // reported route — if it was stale, receivers' caches inherit the blame.
  p->routeProv = reportedProv;
  p->rrep = net::RouteReplyHdr{std::move(fullRoute), self_, fromCache,
                               freshness};
  if (backPath.size() == 1) {
    // Degenerate case: replying to ourselves (cannot happen in practice —
    // the origin never processes its own request).
    return;
  }
  p->route = net::SourceRoute{std::move(backPath), 0};
  transmitAlongRoute(std::move(p));
}

void DsrAgent::handleReply(const net::PacketPtr& p) {
  assert(p->rrep && p->route);
  if (p->route->hops[p->route->cursor] != self_) return;

  const auto& reported = p->rrep->route;

  // Freshness tagging: ignore reply routes that are provably older than
  // information we already hold about this destination.
  if (cfg_.freshnessTagging && !reported.empty()) {
    const net::NodeId target = reported.back();
    auto [it, inserted] =
        freshestSeen_.try_emplace(target, p->rrep->freshness);
    if (!inserted) {
      if (p->rrep->freshness < it->second) {
        if (metrics_) ++metrics_->staleRepliesIgnored;
        // Still forward the reply toward its requester (it may know even
        // less than we do), but learn nothing from it ourselves.
        if (!p->route->atDestination()) transmitAlongRoute(net::clone(*p));
        return;
      }
      it->second = p->rrep->freshness;
    }
  }

  if (p->route->atDestination()) {
    // We are the original requester: cache the route and measure its
    // quality (the paper's "good replies" metric).
    if (metrics_) {
      ++metrics_->repliesReceived;
      if (oracle_ == nullptr || oracle_->routeValid(reported, sched_.now())) {
        ++metrics_->goodRepliesReceived;
      }
    }
    if (!reported.empty() && reported.front() == self_) {
      // A reply generated by the target itself is fresher evidence than any
      // quarantined break (the request just traversed the network): lift
      // the quarantine on its links. Replies served from intermediate
      // caches stay subject to the negative cache — they are exactly the
      // potentially-stale information it exists to filter.
      if (cfg_.negativeCache && !p->rrep->fromCache) {
        for (std::size_t i = 0; i + 1 < reported.size(); ++i) {
          neg_.erase(net::LinkId{reported[i], reported[i + 1]});
        }
      }
      // Label what kind of reply taught us this route: served from an
      // intermediate cache, generated by the target itself, or a gratuitous
      // (route-shortening) reply from an overhearing node (replier is then
      // neither an intermediate cache nor the route's target).
      net::RouteOrigin origin = net::RouteOrigin::kTargetReply;
      if (p->rrep->fromCache) {
        origin = net::RouteOrigin::kCachedReply;
      } else if (p->rrep->replier != reported.back()) {
        origin = net::RouteOrigin::kGratuitous;
      }
      cacheRoute(reported, origin);
      endDiscovery(reported.back());
    }
    drainSendBuffer();
    return;
  }

  // Intermediate reply forwarder: learn the reported route's suffix that
  // starts at us, if any.
  auto it = std::find(reported.begin(), reported.end(), self_);
  if (it != reported.end()) {
    cacheRoute(std::span<const net::NodeId>(&*it,
                                            static_cast<std::size_t>(
                                                reported.end() - it)),
               net::RouteOrigin::kForwarded);
  }
  transmitAlongRoute(net::clone(*p));
}

// ------------------------------------------------------------- discovery

void DsrAgent::startDiscovery(net::NodeId target, std::uint64_t causeUid) {
  DiscoveryState& st = discovery_[target];
  if (st.active) return;
  st.active = true;
  st.backoff = cfg_.requestBackoffInitial;
  st.causeUid = causeUid;
  if (metrics_) ++metrics_->routeDiscoveriesStarted;

  if (cfg_.nonPropagatingRequests) {
    if (metrics_) ++metrics_->nonPropRequestsSent;
    sendRequest(target, /*ttl=*/1);
    st.pendingEvent = sched_.scheduleAfter(
        cfg_.nonPropRequestTimeout,
        [this, target] { onDiscoveryTimeout(target); },
        prof::Category::kRouting);
  } else {
    onDiscoveryTimeout(target);  // go straight to a flood
  }
}

void DsrAgent::onDiscoveryTimeout(net::NodeId target) {
  DiscoveryState& st = discovery_[target];
  st.pendingEvent = sim::kInvalidEvent;
  if (!st.active) return;
  // A route may have arrived via snooping rather than a reply.
  if (lookupRoute(target)) {
    endDiscovery(target);
    drainSendBuffer();
    return;
  }
  if (!sendBuf_.hasPacketsFor(target)) {
    endDiscovery(target);  // nothing left to send; stop asking
    return;
  }
  if (metrics_) ++metrics_->floodRequestsSent;
  sendRequest(target, cfg_.maxRequestTtl);
  st.pendingEvent = sched_.scheduleAfter(
      st.backoff, [this, target] { onDiscoveryTimeout(target); },
      prof::Category::kRouting);
  st.backoff = std::min(st.backoff + st.backoff, cfg_.requestBackoffMax);
}

void DsrAgent::sendRequest(net::NodeId target, std::uint8_t ttl) {
  DiscoveryState& st = discovery_[target];
  auto p = net::Packet::make();
  p->kind = net::PacketKind::kRouteRequest;
  p->src = self_;
  p->dst = net::kBroadcast;
  p->originatedAt = sched_.now();
  p->causeUid = st.causeUid;  // chain the flood to the packet that needs it
  p->rreq = net::RouteRequestHdr{
      .origin = self_,
      .target = target,
      .id = st.nextId++,
      .ttl = ttl,
      .path = {self_},
      .piggybackedError = std::nullopt,
  };
  if (cfg_.gratuitousRepair && pendingRepairError_) {
    p->rreq->piggybackedError = *pendingRepairError_;
    pendingRepairError_.reset();
  }
  mac_.send(std::move(p), net::kBroadcast, /*priority=*/true);
}

void DsrAgent::endDiscovery(net::NodeId target) {
  auto it = discovery_.find(target);
  if (it == discovery_.end()) return;
  sched_.cancel(it->second.pendingEvent);
  it->second.pendingEvent = sim::kInvalidEvent;
  it->second.active = false;
}

void DsrAgent::drainSendBuffer() {
  // Try every buffered destination against the (possibly just updated)
  // cache; send what has become routable.
  for (net::NodeId target : sendBuf_.destinations()) {
    auto hit = lookupRoute(target);
    if (!hit) continue;
    for (auto& entry : sendBuf_.takeForDest(target)) {
      recordCacheHit(*hit);
      auto p = net::clone(*entry.packet);
      p->routeProv = hit->prov;
      p->route = net::SourceRoute{hit->hops, 0};
      transmitAlongRoute(std::move(p));
    }
    endDiscovery(target);
  }
}

// ------------------------------------------------------------------ errors

void DsrAgent::onSendFailed(net::PacketPtr p, net::NodeId nextHop) {
  const net::LinkId broken{self_, nextHop};
  const bool fake = oracle_ != nullptr &&
                    oracle_->linkValid(self_, nextHop, sched_.now());
  if (metrics_) {
    ++metrics_->linkBreaksDetected;
    if (fake) ++metrics_->fakeLinkBreaks;  // congestion, not mobility
  }
  if (tracing()) {
    telemetry::TraceRecord r;
    r.at = sched_.now();
    r.event = telemetry::TraceEvent::kLinkBreak;
    r.node = self_;
    r.src = self_;
    r.dst = nextHop;
    r.detail = fake ? 1 : 0;
    tracer_->emit(r);
  }
  noteBrokenLink(broken, net::RouteOrigin::kMacFeedback);

  // Flush queued packets that would use the same dead link, as ns-2 does.
  std::vector<mac::QueuedPacket> purged = mac_.purgeNextHop(nextHop);

  // The packet whose transmission failed.
  if (p->kind == net::PacketKind::kData) {
    originateError(broken, p.get());
    if (!trySalvage(*p, broken)) {
      if (metrics_) ++metrics_->dropLinkFailNoSalvage;
      tracePacketEvent(telemetry::TraceEvent::kPktDrop, *p,
                       telemetry::DropReason::kLinkFailNoSalvage);
    }
  }
  for (const mac::QueuedPacket& qp : purged) {
    if (qp.packet->kind != net::PacketKind::kData) continue;
    if (!trySalvage(*qp.packet, broken)) {
      if (metrics_) ++metrics_->dropLinkFailNoSalvage;
      tracePacketEvent(telemetry::TraceEvent::kPktDrop, *qp.packet,
                       telemetry::DropReason::kLinkFailNoSalvage);
    }
  }
}

bool DsrAgent::trySalvage(const net::Packet& failed, net::LinkId broken) {
  if (!cfg_.salvaging) return false;
  if (failed.salvageCount >= cfg_.maxSalvageCount) return false;
  if (!failed.route) return false;
  const net::NodeId dest = failed.route->destination();
  if (dest == self_) return false;
  auto hit = lookupRoute(dest);
  if (!hit || net::routeContainsLink(hit->hops, broken)) return false;
  if (metrics_) ++metrics_->salvageAttempts;
  recordCacheHit(*hit);
  auto p = net::clone(failed);
  // The salvaged packet now follows the salvor's cache entry; re-attribute
  // any later failure to it rather than the source's original entry.
  p->routeProv = hit->prov;
  p->route = net::SourceRoute{std::move(hit->hops), 0};
  ++p->salvageCount;
  transmitAlongRoute(std::move(p));
  return true;
}

void DsrAgent::noteBrokenLink(net::LinkId link, net::RouteOrigin origin) {
  // Remove from the route cache; the affected paths' ages feed the adaptive
  // timeout estimator as route-lifetime samples.
  const auto affected = cache_->removeLink(link, sched_.now());
  if (affected.empty()) {
    adaptive_.onLinkBreak(sched_.now());
  } else {
    for (sim::Time addedAt : affected) {
      adaptive_.onRouteBreak(addedAt, sched_.now());
    }
  }
  if (cfg_.negativeCache) {
    neg_.insert(link, sched_.now(), origin);
    if (prof::Profiler* pr = sched_.profiler()) {
      pr->notePeak(prof::Gauge::kNegCacheEntries, neg_.rawSize());
    }
    if (metrics_) ++metrics_->negCacheInsertions;
  }
  forwardedLinks_.erase(link);
}

void DsrAgent::originateError(net::LinkId link, const net::Packet* failed) {
  ++errorCounter_;
  auto p = net::Packet::make();
  p->kind = net::PacketKind::kRouteError;
  p->src = self_;
  p->originatedAt = sched_.now();
  if (failed != nullptr) {
    // Chain the error to the packet whose failure it reports, and carry the
    // provenance of the cache entry that routed that packet over the broken
    // link — the RERR is the stale entry's obituary.
    p->causeUid = failed->uid;
    p->routeProv = failed->routeProv;
  }
  p->rerr = net::RouteErrorHdr{link, self_, errorCounter_};

  if (cfg_.widerErrorNotification) {
    // Technique 1: bad news travels as a MAC broadcast; receivers clean
    // their caches and selectively rebroadcast (see handleErrorBroadcast).
    p->dst = net::kBroadcast;
    traceRerr(telemetry::TraceEvent::kRerrOriginate, link, /*detail=*/1,
              p.get());
    mac_.send(std::move(p), net::kBroadcast, /*priority=*/true);
    return;
  }

  // Base DSR: unicast the error to the source of the failed packet over the
  // reversed traversed prefix of its source route.
  if (failed == nullptr || !failed->route) return;
  const auto& hops = failed->route->hops;
  auto selfIt = std::find(hops.begin(), hops.end(), self_);
  if (selfIt == hops.end()) return;
  if (selfIt == hops.begin()) {
    // We are the source: no packet needed; remember the error for
    // gratuitous route repair on the next request.
    if (cfg_.gratuitousRepair) pendingRepairError_ = link;
    return;
  }
  std::vector<net::NodeId> back(
      std::make_reverse_iterator(selfIt + 1), hops.rend());
  p->dst = back.back();
  p->route = net::SourceRoute{std::move(back), 0};
  traceRerr(telemetry::TraceEvent::kRerrOriginate, link, /*detail=*/0,
            p.get());
  transmitAlongRoute(std::move(p));
}

void DsrAgent::handleErrorUnicast(const net::PacketPtr& p) {
  assert(p->rerr && p->route);
  if (p->route->hops[p->route->cursor] != self_) return;
  noteBrokenLink(p->rerr->broken, net::RouteOrigin::kRerrUnicast);
  if (p->route->atDestination()) {
    // We are the source being notified: arm gratuitous route repair.
    if (cfg_.gratuitousRepair) pendingRepairError_ = p->rerr->broken;
    return;
  }
  traceRerr(telemetry::TraceEvent::kRerrForward, p->rerr->broken,
            /*detail=*/0, p.get());
  transmitAlongRoute(net::clone(*p));
}

void DsrAgent::handleErrorBroadcast(const net::PacketPtr& p) {
  assert(p->rerr);
  const net::RouteErrorHdr& err = *p->rerr;
  if (err.detector == self_) return;
  if (errorSeen(err.detector, err.errorId)) return;

  // Rebroadcast only if we both cached the broken link and had used it in
  // packets we forwarded — this prunes the flood to the tree of nodes that
  // actually routed over the link (plus their snooping neighbors). Both
  // predicates must be evaluated before noteBrokenLink cleans them up.
  const bool hadLink = cache_->containsLink(err.broken);
  const bool usedInForwarding = forwardedLinks_.contains(err.broken);
  noteBrokenLink(err.broken, net::RouteOrigin::kRerrBroadcast);

  if (hadLink && usedInForwarding) {
    if (metrics_) ++metrics_->rerrWideRebroadcasts;
    traceRerr(telemetry::TraceEvent::kRerrForward, err.broken, /*detail=*/1,
              p.get());
    auto fwd = net::clone(*p);
    const auto jitter = sim::Time::nanos(rng_.uniformInt(
        0, std::max<std::int64_t>(1, cfg_.broadcastJitterMax.ns())));
    sched_.scheduleAfter(
        jitter,
        [this, fwd = std::move(fwd)] {
          mac_.send(fwd, net::kBroadcast, /*priority=*/true);
        },
        prof::Category::kRouting);
  }
}

// ------------------------------------------------------------------- tap

void DsrAgent::onTap(const mac::Frame& f) {
  if (cfg_.negativeCache) neg_.erase(net::LinkId{self_, f.src});
  if (!cfg_.promiscuousListening) return;
  if (!f.packet) return;
  const net::Packet& p = *f.packet;

  switch (p.kind) {
    case net::PacketKind::kData:
    case net::PacketKind::kRouteReply: {
      if (!p.route) break;
      const auto& hops = p.route->hops;
      auto txIt = std::find(hops.begin(), hops.end(), f.src);
      if (txIt == hops.end()) break;
      // We hear the transmitter, so we can reach everything downstream of
      // it: cache [self, transmitter, ...rest].
      std::vector<net::NodeId> snooped;
      snooped.push_back(self_);
      snooped.insert(snooped.end(), txIt, hops.end());
      if (!net::routeHasDuplicates(snooped)) {
        cacheRoute(snooped, net::RouteOrigin::kSnooped);
      }

      // A route reply also reveals the reported route.
      if (p.rrep) {
        const auto& rep = p.rrep->route;
        auto it = std::find(rep.begin(), rep.end(), self_);
        if (it != rep.end()) {
          cacheRoute(std::span<const net::NodeId>(
                         &*it, static_cast<std::size_t>(rep.end() - it)),
                     net::RouteOrigin::kSnooped);
        }
      }

      // Gratuitous reply (automatic route shortening): if this data packet
      // will reach us several hops later anyway, tell the source to skip
      // the detour.
      if (cfg_.gratuitousReplies && p.kind == net::PacketKind::kData) {
        auto selfIt = std::find(hops.begin(), hops.end(), self_);
        if (selfIt != hops.end() && selfIt > txIt + 1) {
          const net::NodeId source = hops.front();
          auto last = lastGratReply_.find(source);
          if (last == lastGratReply_.end() ||
              sched_.now() - last->second >= kGratReplyHoldoff) {
            lastGratReply_[source] = sched_.now();
            std::vector<net::NodeId> shortened(hops.begin(), txIt + 1);
            shortened.insert(shortened.end(), selfIt, hops.end());
            // Back path to the source over the shortened prefix.
            std::vector<net::NodeId> backPath;
            backPath.push_back(self_);
            for (auto it2 = std::make_reverse_iterator(txIt + 1);
                 it2 != hops.rend(); ++it2) {
              backPath.push_back(*it2);
            }
            if (!net::routeHasDuplicates(shortened) &&
                !net::routeHasDuplicates(backPath) && backPath.size() >= 2) {
              if (metrics_) ++metrics_->gratuitousRepliesGenerated;
              sendReply(std::move(shortened), std::move(backPath),
                        /*fromCache=*/false, /*freshness=*/0,
                        /*causeUid=*/p.uid);
            }
          }
        }
      }
      break;
    }
    case net::PacketKind::kRouteError:
      // Deliberately NOT snooped. Base DSR's incomplete error notification
      // — errors clean only the caches on the reverse path — is the
      // premise of the paper's wider-error technique; cleaning caches from
      // overheard unicast errors would make every error implicitly "wide".
      break;
    case net::PacketKind::kRouteRequest:
      break;  // requests are broadcast; never tapped
  }
}

// ------------------------------------------------------------------ cache

void DsrAgent::cacheRoute(std::span<const net::NodeId> hops,
                          net::RouteOrigin origin) {
  if (hops.size() < 2 || hops.front() != self_) return;
  std::size_t usable = hops.size();
  if (cfg_.negativeCache) {
    // Mutual exclusion: truncate at the first negatively-cached link so a
    // freshly-erased stale route cannot be re-learned from in-flight
    // packets ("quick pollution").
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      if (neg_.contains(net::LinkId{hops[i], hops[i + 1]}, sched_.now())) {
        usable = i + 1;
        break;
      }
    }
  }
  if (usable < 2) return;
  cache_->insert(hops.subspan(0, usable), sched_.now(), origin);
  if (prof::Profiler* pr = sched_.profiler()) {
    pr->notePeak(prof::Gauge::kRouteCacheEntries, cache_->size());
  }
  // A cache update may make buffered destinations routable.
  if (sendBuf_.size() > 0) drainSendBuffer();
}

std::optional<RouteLookup> DsrAgent::lookupRoute(net::NodeId dest) {
  if (!cfg_.negativeCache) return cache_->lookup(dest);
  // Skip routes over quarantined links, but let alternate cached paths
  // serve the destination.
  return cache_->lookup(dest, [this](net::LinkId link) {
    return !neg_.contains(link, sched_.now());
  });
}

void DsrAgent::recordCacheHit(const RouteLookup& hit) {
  const bool valid =
      oracle_ == nullptr || oracle_->routeValid(hit.hops, sched_.now());
  if (metrics_) {
    ++metrics_->cacheHits;
    if (oracle_ != nullptr && !valid) {
      ++metrics_->invalidCacheHits;
      // Attribute the stale hit to how the serving entry was learned —
      // the causal breakdown behind the paper's Table 3 outcome counters.
      const auto idx = static_cast<std::size_t>(hit.prov.origin);
      if (idx < metrics_->invalidCacheHitsByOrigin.size()) {
        ++metrics_->invalidCacheHitsByOrigin[idx];
      }
    }
  }
  if (tracing()) {
    telemetry::TraceRecord r;
    r.at = sched_.now();
    r.event = telemetry::TraceEvent::kCacheHit;
    r.node = self_;
    r.src = self_;
    r.dst = hit.hops.empty() ? 0 : hit.hops.back();
    r.detail = oracle_ == nullptr ? -1 : (valid ? 1 : 0);
    r.prov = hit.prov;
    tracer_->emit(r);
  }
}

void DsrAgent::tracePacketEvent(telemetry::TraceEvent event,
                                const net::Packet& p,
                                telemetry::DropReason reason,
                                std::int64_t detail) {
  if (!tracing()) return;
  telemetry::TraceRecord r =
      telemetry::packetRecord(event, sched_.now(), self_, p, reason);
  r.detail = detail;
  tracer_->emit(r);
}

void DsrAgent::traceRerr(telemetry::TraceEvent event, net::LinkId broken,
                         std::int64_t detail, const net::Packet* p) {
  if (!tracing()) return;
  telemetry::TraceRecord r;
  r.at = sched_.now();
  r.event = event;
  r.node = self_;
  r.kind = net::PacketKind::kRouteError;
  r.src = broken.from;
  r.dst = broken.to;
  r.detail = detail;
  if (p != nullptr) {
    r.uid = p->uid;
    r.cause = p->causeUid;
    r.prov = p->routeProv;
  }
  tracer_->emit(r);
}

// --------------------------------------------------------------- periodic

void DsrAgent::periodicExpiry() {
  const sim::Time timeout = currentExpiryTimeout();
  if (timeout < sim::Time::max()) {
    const sim::Time now = sched_.now();
    const sim::Time cutoff =
        now > timeout ? now - timeout : sim::Time::zero();
    const std::size_t pruned = cache_->expireUnusedSince(cutoff);
    if (metrics_) metrics_->expiredLinks += pruned;
  }
  sched_.scheduleAfter(
      cfg_.expiryCheckPeriod, [this] { periodicExpiry(); },
      prof::Category::kRouting);
}

void DsrAgent::periodicBufferSweep() {
  const auto expired = sendBuf_.expire(sched_.now());
  if (metrics_) metrics_->dropSendBufferTimeout += expired.size();
  for (const auto& e : expired) {
    if (e.packet) {
      tracePacketEvent(telemetry::TraceEvent::kPktDrop, *e.packet,
                       telemetry::DropReason::kSendBufferTimeout);
    }
  }
  // Safety net: if packets are waiting but no discovery is running (e.g.
  // the discovery ended because a snooped route later vanished), restart.
  for (auto& [target, st] : discovery_) {
    if (!st.active && sendBuf_.hasPacketsFor(target)) startDiscovery(target);
  }
  sched_.scheduleAfter(
      sim::Time::seconds(1), [this] { periodicBufferSweep(); },
      prof::Category::kRouting);
}

// -------------------------------------------------------------- dedup sets

bool DsrAgent::requestSeen(net::NodeId origin, std::uint32_t id) {
  return seenRequests_.contains(seenKey(origin, id));
}

void DsrAgent::rememberRequest(net::NodeId origin, std::uint32_t id) {
  const auto key = seenKey(origin, id);
  if (seenRequests_.insert(key).second) {
    seenRequestsFifo_.push_back(key);
    if (seenRequestsFifo_.size() > kSeenTableCapacity) {
      seenRequests_.erase(seenRequestsFifo_.front());
      seenRequestsFifo_.pop_front();
    }
  }
}

bool DsrAgent::errorSeen(net::NodeId detector, std::uint32_t id) {
  const auto key = seenKey(detector, id);
  if (seenErrors_.contains(key)) return true;
  seenErrors_.insert(key);
  seenErrorsFifo_.push_back(key);
  if (seenErrorsFifo_.size() > kSeenTableCapacity) {
    seenErrors_.erase(seenErrorsFifo_.front());
    seenErrorsFifo_.pop_front();
  }
  return false;
}

}  // namespace manet::core
