// Ad hoc On-demand Distance Vector routing (AODV, Perkins & Royer) —
// the comparison protocol of the paper's companion studies (Das, Perkins
// & Royer, INFOCOM 2000). RFC 3561 subset, in the configuration those
// studies used: link-layer failure feedback instead of hello messages.
//
// Where DSR caches complete source routes, AODV keeps one hop-by-hop route
// table entry per destination, guarded by destination sequence numbers —
// the "relative freshness" mechanism the paper's future work section
// wishes for in DSR. Intermediate nodes with a fresh-enough entry answer
// route requests, which is AODV's indirect use of caching.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_set>

#include "src/aodv/aodv_config.h"
#include "src/core/send_buffer.h"
#include "src/mac/dcf_mac.h"
#include "src/metrics/metrics.h"
#include "src/metrics/oracle.h"
#include "src/net/packet.h"
#include "src/net/routing_agent.h"
#include "src/net/seen_table.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"

namespace manet::aodv {

class AodvAgent final : public net::RoutingAgent {
 public:
  struct RouteEntry {
    net::NodeId nextHop = 0;
    std::uint8_t hopCount = 0;
    std::uint32_t seqNo = 0;
    bool validSeq = false;
    bool valid = false;
    sim::Time expiresAt;
    /// Neighbors routing through us toward this destination (route error
    /// recipients when the route dies).
    std::unordered_set<net::NodeId> precursors;
  };

  AodvAgent(net::NodeId self, mac::DcfMac& mac, sim::Scheduler& sched,
            sim::Rng rng, const AodvConfig& cfg, metrics::Metrics* metrics,
            const metrics::LinkOracle* oracle);

  void sendData(net::NodeId dst, std::uint32_t payloadBytes,
                std::uint32_t flowId, std::uint64_t seqInFlow) override;
  net::NodeId id() const override { return self_; }

  // --- introspection ---
  const RouteEntry* route(net::NodeId dst) const;

 private:
  struct DiscoveryState {
    bool active = false;
    sim::Time backoff;
    sim::EventId pendingEvent = sim::kInvalidEvent;
    /// Uid of the data packet that triggered this discovery; every RREQ of
    /// the discovery carries it as its causal parent.
    std::uint64_t causeUid = 0;
  };

  void onReceive(net::PacketPtr p, net::NodeId from);
  void onSendFailed(net::PacketPtr p, net::NodeId nextHop);

  void handleData(const net::PacketPtr& p, net::NodeId from);
  void handleRreq(const net::PacketPtr& p, net::NodeId from);
  void handleRrep(const net::PacketPtr& p, net::NodeId from);
  void handleRerr(const net::PacketPtr& p, net::NodeId from);

  void startDiscovery(net::NodeId target, std::uint64_t causeUid = 0);
  void onDiscoveryTimeout(net::NodeId target);
  void endDiscovery(net::NodeId target);
  void sendRreq(net::NodeId target);
  /// `causeUid` links the reply to the request it answers.
  void sendRrep(net::NodeId toward, const net::AodvRrepHdr& hdr,
                std::uint64_t causeUid);

  /// Update/refresh a route entry from observed traffic; returns true if
  /// the new information was accepted (fresher or shorter).
  bool updateRoute(net::NodeId dst, net::NodeId nextHop,
                   std::uint8_t hopCount, std::uint32_t seqNo, bool validSeq);
  void refreshLifetime(net::NodeId dst);
  void forwardData(const net::PacketPtr& p);
  void drainSendBuffer();
  /// `causeUid` (when nonzero) chains the resulting RERR broadcast to the
  /// packet whose transmission failure exposed the dead link.
  void invalidateVia(net::NodeId nextHop, std::uint64_t causeUid = 0);
  void periodicSweep();

  net::NodeId self_;
  mac::DcfMac& mac_;
  sim::Scheduler& sched_;
  sim::Rng rng_;
  AodvConfig cfg_;
  metrics::Metrics* metrics_;
  const metrics::LinkOracle* oracle_;

  std::uint32_t ownSeq_ = 0;
  std::uint32_t rreqCounter_ = 0;
  /// Ordered: invalidateVia/periodicSweep iterate these to build RERR
  /// payloads and restart discoveries — both packet-emission order and RERR
  /// contents are simulation-visible, so hash order must not decide them.
  std::map<net::NodeId, RouteEntry> routes_;
  std::map<net::NodeId, DiscoveryState> discovery_;
  core::SendBuffer sendBuf_;
  net::SeenTable seenRreqs_;
};

}  // namespace manet::aodv
