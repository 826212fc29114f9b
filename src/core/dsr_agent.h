// The Dynamic Source Routing agent: one per node.
//
// Implements the full DSR protocol of Johnson & Maltz with the four standard
// optimizations the paper's Base DSR uses (reply-from-cache, salvaging,
// gratuitous route repair, promiscuous listening with gratuitous replies,
// non-propagating route requests), plus the paper's three cache-correctness
// techniques:
//
//   1. wider error notification   (broadcast RERRs, selective rebroadcast)
//   2. timer-based route expiry   (static or adaptive timeout)
//   3. negative caches            (broken-link cache, mutual exclusion)
//
// The agent sits directly on the MAC: it receives packets addressed to the
// node, overhears everything else through the promiscuous tap, and learns of
// broken links through the MAC's sendFailed feedback.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <memory>

#include "src/core/adaptive_timeout.h"
#include "src/core/cache_structure.h"
#include "src/core/dsr_config.h"
#include "src/core/negative_cache.h"
#include "src/core/send_buffer.h"
#include "src/mac/dcf_mac.h"
#include "src/metrics/metrics.h"
#include "src/metrics/oracle.h"
#include "src/net/packet.h"
#include "src/net/routing_agent.h"
#include "src/net/seen_table.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"

namespace manet::core {

class DsrAgent final : public net::RoutingAgent {
 public:
  /// `oracle` is optional and measurement-only (cache-correctness metrics).
  /// `tracer` is optional; when enabled the agent emits packet-lifecycle,
  /// cache and route-error trace records (see src/telemetry/trace.h).
  DsrAgent(net::NodeId self, mac::DcfMac& mac, sim::Scheduler& sched,
           sim::Rng rng, const DsrConfig& cfg, metrics::Metrics* metrics,
           const metrics::LinkOracle* oracle,
           telemetry::Tracer* tracer = nullptr);

  DsrAgent(const DsrAgent&) = delete;
  DsrAgent& operator=(const DsrAgent&) = delete;

  /// Application entry point: send `payloadBytes` of data to `dst`.
  void sendData(net::NodeId dst, std::uint32_t payloadBytes,
                std::uint32_t flowId, std::uint64_t seqInFlow) override;

  /// Send a fully-formed packet (transport extension: segments carrying a
  /// TransportHdr). kind must be kData; src must be this node.
  void sendPacket(std::shared_ptr<net::Packet> p);

  /// Register an upcall invoked for every data packet delivered to this
  /// node (after metrics accounting). Multiple handlers are all invoked.
  using DeliveryHandler = std::function<void(const net::Packet&)>;
  void addDeliveryHandler(DeliveryHandler h) {
    deliveryHandlers_.push_back(std::move(h));
  }

  net::NodeId id() const override { return self_; }
  const DsrConfig& config() const { return cfg_; }

  /// Preload a route (first hop must be this node). Subject to the same
  /// admission rules as learned routes (loop-free, negative-cache mutual
  /// exclusion). Useful for static deployments, tests and examples.
  void seedRoute(std::span<const net::NodeId> hops) {
    cacheRoute(hops, net::RouteOrigin::kSeeded);
  }

  /// Drop all cached route state — route cache, negative cache and the
  /// forwarded-links memory used by wider error notification. Called by the
  /// fault injector when a crashed node recovers (a reboot loses soft
  /// state); pending discoveries and buffered packets survive, as a real
  /// send buffer in kernel memory would not, but re-buffering them would
  /// double-count originations.
  void wipeCaches();

  // --- introspection (tests, examples, benches) ---
  const RouteCacheBase& routeCache() const { return *cache_; }
  NegativeCache& negativeCache() { return neg_; }
  const AdaptiveTimeout& adaptiveTimeout() const { return adaptive_; }
  const SendBuffer& sendBuffer() const { return sendBuf_; }
  /// The expiry timeout currently in force (static value, adaptive estimate,
  /// or Time::max() when expiry is off).
  sim::Time currentExpiryTimeout() const;

 private:
  struct DiscoveryState {
    bool active = false;
    std::uint32_t nextId = 1;
    sim::Time backoff;
    sim::EventId pendingEvent = sim::kInvalidEvent;
    /// Uid of the buffered data packet that triggered this discovery; every
    /// RREQ the discovery emits carries it as causeUid, chaining the flood
    /// (and its replies) back to the packet that needed the route.
    std::uint64_t causeUid = 0;
  };

  // MAC callbacks.
  void onReceive(net::PacketPtr p, net::NodeId from);
  void onTap(const mac::Frame& f);
  void onSendFailed(net::PacketPtr p, net::NodeId nextHop);

  // Per-kind handlers.
  void handleData(const net::PacketPtr& p);
  void handleRequest(const net::PacketPtr& p, net::NodeId from);
  void handleReply(const net::PacketPtr& p);
  void handleErrorUnicast(const net::PacketPtr& p);
  void handleErrorBroadcast(const net::PacketPtr& p);

  // Route discovery. `causeUid` is the uid of the data packet that needs
  // the route (0 when unknown, e.g. buffer-sweep restarts).
  void startDiscovery(net::NodeId target, std::uint64_t causeUid = 0);
  void sendRequest(net::NodeId target, std::uint8_t ttl);
  void onDiscoveryTimeout(net::NodeId target);
  void endDiscovery(net::NodeId target);

  // Replies. `causeUid` names the packet that provoked the reply (the
  // request being answered, or the tapped data packet for gratuitous
  // replies); `reportedProv` is the cache entry a cached reply serves from.
  void sendReply(std::vector<net::NodeId> fullRoute,
                 std::vector<net::NodeId> backPath, bool fromCache,
                 std::uint32_t freshness = 0, std::uint64_t causeUid = 0,
                 net::RouteProvenance reportedProv = {});

  // Errors / broken links. `origin` names the evidence that condemned the
  // link (MAC feedback vs. the flavor of route error that reported it) and
  // becomes the negative-cache entry's provenance origin.
  void noteBrokenLink(net::LinkId link, net::RouteOrigin origin);
  void originateError(net::LinkId link, const net::Packet* failedPacket);

  // Cache plumbing.
  /// Insert a route into the cache, honoring negative-cache mutual
  /// exclusion (the route is truncated at the first negatively-cached
  /// link). `hops` must start at this node; `origin` names how the route
  /// was learned and seeds the new entry's provenance.
  void cacheRoute(std::span<const net::NodeId> hops, net::RouteOrigin origin);
  /// Cache lookup that refuses routes crossing negatively-cached links.
  /// The result carries the serving entry's provenance.
  std::optional<RouteLookup> lookupRoute(net::NodeId dest);
  /// Count a cache hit and its oracle-checked validity, attributed to the
  /// serving entry's origin.
  void recordCacheHit(const RouteLookup& hit);

  // Tracing helpers (no-ops when no sink is attached).
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }
  void tracePacketEvent(
      telemetry::TraceEvent event, const net::Packet& p,
      telemetry::DropReason reason = telemetry::DropReason::kNone,
      std::int64_t detail = 0);
  /// Route-error records carry the broken link's endpoints in src/dst.
  /// `p` (the RERR packet, when available) contributes uid, causal link and
  /// the provenance of the entry whose failure the error reports.
  void traceRerr(telemetry::TraceEvent event, net::LinkId broken,
                 std::int64_t detail, const net::Packet* p = nullptr);

  // Transmission helpers.
  void transmitAlongRoute(std::shared_ptr<net::Packet> p);
  void forwardData(const net::PacketPtr& p);
  bool trySalvage(const net::Packet& failed, net::LinkId broken);
  void drainSendBuffer();

  // Periodic work.
  void periodicExpiry();
  void periodicBufferSweep();

  net::NodeId self_;
  mac::DcfMac& mac_;
  sim::Scheduler& sched_;
  sim::Rng rng_;
  DsrConfig cfg_;
  metrics::Metrics* metrics_;
  const metrics::LinkOracle* oracle_;
  telemetry::Tracer* tracer_;

  std::unique_ptr<RouteCacheBase> cache_;
  NegativeCache neg_;
  AdaptiveTimeout adaptive_;
  SendBuffer sendBuf_;

  /// Ordered: the periodic buffer sweep iterates this to restart stalled
  /// discoveries, and the resulting RREQ emission order is
  /// simulation-visible. Point-lookup-only sets below stay unordered.
  std::map<net::NodeId, DiscoveryState> discovery_;
  net::SeenTable seenRequests_;
  net::SeenTable seenErrors_;
  /// Links this node recently used while forwarding packets — the wider
  /// error rebroadcast predicate ("that route was used before in the
  /// packets forwarded by the node"). Kept only with wider error
  /// notification on.
  std::unordered_set<net::LinkId, net::LinkIdHash> forwardedLinks_;
  /// Gratuitous-reply rate limiting: (routeSource -> last grat reply time).
  std::unordered_map<net::NodeId, sim::Time> lastGratReply_;
  /// Most recent route error this node originated or received as a source,
  /// piggybacked on the next route request (gratuitous route repair).
  std::optional<net::LinkId> pendingRepairError_;
  std::uint32_t errorCounter_ = 0;
  std::vector<DeliveryHandler> deliveryHandlers_;
  /// onTap's snooped route, reused across overheard frames.
  std::vector<net::NodeId> snooped_;

  // Freshness-tagging extension state.
  std::uint32_t ownFreshness_ = 0;  // stamp for replies we originate as target
  /// Freshest reply stamp seen per destination.
  std::unordered_map<net::NodeId, std::uint32_t> freshestSeen_;
};

}  // namespace manet::core
