// Run-wide measurement counters and the derived metrics the paper reports.
//
// The paper's routing metrics:
//  * packet delivery fraction  — delivered / originated (or throughput);
//  * average end-to-end delay  — buffering + queueing + MAC + transfer;
//  * normalized overhead       — hop-wise transmissions of ALL overhead
//    packets (RREQ/RREP/RERR and MAC RTS/CTS/ACK) per delivered data packet.
// And its cache-correctness metrics:
//  * percentage of good replies        — route replies received at sources
//    whose reported route is actually valid (checked by the link oracle);
//  * percentage of invalid cached routes — cache hits that handed out a
//    route containing at least one dead link.
#pragma once

#include <array>
#include <cstdint>

#include "src/net/packet.h"
#include "src/sim/time.h"

namespace manet::metrics {

struct Metrics {
  // ---- application-level ----
  std::uint64_t dataOriginated = 0;
  std::uint64_t dataDelivered = 0;
  std::uint64_t bytesDelivered = 0;
  double delaySumSec = 0.0;

  // ---- drop accounting ----
  std::uint64_t dropSendBufferTimeout = 0;  // waited >30 s for a route
  std::uint64_t dropSendBufferOverflow = 0;
  std::uint64_t dropIfqFull = 0;       // MAC interface queue overflow
  std::uint64_t dropLinkFailNoSalvage = 0;
  std::uint64_t dropNegativeCache = 0;  // dropped by the negative cache rule
  std::uint64_t dropTtlExpired = 0;
  std::uint64_t dropMacDuplicate = 0;
  std::uint64_t dropNodeDown = 0;  // flushed from MAC queue at node crash

  // ---- hop-wise overhead transmissions ----
  std::uint64_t rreqTx = 0;
  std::uint64_t rrepTx = 0;
  std::uint64_t rerrTx = 0;
  std::uint64_t rtsTx = 0;
  std::uint64_t ctsTx = 0;
  std::uint64_t ackTx = 0;
  std::uint64_t dataFrameTx = 0;  // informational (not overhead)
  std::uint64_t ctsTimeouts = 0;  // RTS sent, no CTS back
  std::uint64_t ackTimeouts = 0;  // DATA sent, no ACK back
  std::uint64_t rtsIgnoredBusy = 0;  // RTS for us refused (NAV/mid-exchange)

  // ---- cache behaviour ----
  std::uint64_t cacheHits = 0;         // route served from a cache (source
                                       // send, salvage, or cached reply)
  std::uint64_t invalidCacheHits = 0;  // ...where the route was stale
  /// invalidCacheHits broken down by how the serving entry was learned
  /// (indexed by net::RouteOrigin) — the causal attribution behind the
  /// paper's invalid-cached-routes outcome counter. Index 0 (kNone) counts
  /// hits on entries inserted without provenance.
  std::array<std::uint64_t, net::kNumRouteOrigins> invalidCacheHitsByOrigin{};
  std::uint64_t repliesReceived = 0;   // RREPs arriving at request origins
  std::uint64_t goodRepliesReceived = 0;
  std::uint64_t cacheRepliesGenerated = 0;
  std::uint64_t targetRepliesGenerated = 0;
  std::uint64_t gratuitousRepliesGenerated = 0;
  /// Freshness-tagging extension: replies discarded as provably stale.
  std::uint64_t staleRepliesIgnored = 0;

  // ---- protocol events ----
  std::uint64_t routeDiscoveriesStarted = 0;
  std::uint64_t nonPropRequestsSent = 0;
  std::uint64_t floodRequestsSent = 0;
  std::uint64_t linkBreaksDetected = 0;
  /// Breaks reported by MAC retry exhaustion where the link was in fact
  /// still geometrically up (congestion-induced false positives).
  std::uint64_t fakeLinkBreaks = 0;
  std::uint64_t salvageAttempts = 0;
  std::uint64_t expiredLinks = 0;       // pruned by timer-based expiry
  std::uint64_t rerrWideRebroadcasts = 0;
  std::uint64_t negCacheInsertions = 0;

  // ---- injected faults (src/fault/; all zero without a FaultPlan) ----
  std::uint64_t faultNodeCrashes = 0;
  std::uint64_t faultNodeRecoveries = 0;

  // ---- derived metrics (paper's plots) ----
  /// Sum of every drop counter (one packet may be counted at most once:
  /// each drop site increments exactly one reason).
  std::uint64_t totalDropped() const {
    return dropSendBufferTimeout + dropSendBufferOverflow + dropIfqFull +
           dropLinkFailNoSalvage + dropNegativeCache + dropTtlExpired +
           dropMacDuplicate + dropNodeDown;
  }
  double packetDeliveryFraction() const {
    return dataOriginated == 0
               ? 0.0
               : static_cast<double>(dataDelivered) /
                     static_cast<double>(dataOriginated);
  }
  double avgDelaySec() const {
    return dataDelivered == 0
               ? 0.0
               : delaySumSec / static_cast<double>(dataDelivered);
  }
  std::uint64_t overheadTx() const {
    return rreqTx + rrepTx + rerrTx + rtsTx + ctsTx + ackTx;
  }
  double normalizedOverhead() const {
    return dataDelivered == 0 ? 0.0
                              : static_cast<double>(overheadTx()) /
                                    static_cast<double>(dataDelivered);
  }
  double throughputKbps(sim::Time duration) const {
    const double secs = duration.toSeconds();
    return secs <= 0.0 ? 0.0
                       : static_cast<double>(bytesDelivered) * 8.0 / 1000.0 /
                             secs;
  }
  double goodReplyPct() const {
    return repliesReceived == 0
               ? 0.0
               : 100.0 * static_cast<double>(goodRepliesReceived) /
                     static_cast<double>(repliesReceived);
  }
  double invalidCacheHitPct() const {
    return cacheHits == 0 ? 0.0
                          : 100.0 * static_cast<double>(invalidCacheHits) /
                                static_cast<double>(cacheHits);
  }
};

}  // namespace manet::metrics
