#include "src/net/packet.h"

#include <algorithm>
#include <array>

namespace manet::net {

const char* toString(PacketKind k) {
  switch (k) {
    case PacketKind::kData:
      return "DATA";
    case PacketKind::kRouteRequest:
      return "RREQ";
    case PacketKind::kRouteReply:
      return "RREP";
    case PacketKind::kRouteError:
      return "RERR";
  }
  return "?";
}

std::uint32_t Packet::wireBytes() const {
  // DSR fixed header (4 B) plus per-option costs modeled after the draft:
  // source route option 4 B + 4 B/hop; rreq/rrep/rerr similar.
  std::uint32_t bytes = payloadBytes + 4;
  if (route) bytes += 4 + 4 * static_cast<std::uint32_t>(route->hops.size());
  if (rreq) bytes += 8 + 4 * static_cast<std::uint32_t>(rreq->path.size()) +
                     (rreq->piggybackedError ? 12 : 0);
  if (rrep) bytes += 4 + 4 * static_cast<std::uint32_t>(rrep->route.size());
  if (rerr) bytes += 12;
  if (aodvRreq) bytes += 24;  // RFC 3561 RREQ size
  if (aodvRrep) bytes += 20;
  if (aodvRerr) {
    bytes += 4 + 8 * static_cast<std::uint32_t>(aodvRerr->unreachable.size());
  }
  if (transport) bytes += 12;
  return bytes;
}

std::string Packet::summary() const {
  std::string s = toString(kind);
  s += " uid=" + std::to_string(uid) + " " + std::to_string(src) + "->" +
       (dst == kBroadcast ? std::string("*") : std::to_string(dst));
  return s;
}

const char* toString(RouteOrigin o) {
  switch (o) {
    case RouteOrigin::kNone:
      return "none";
    case RouteOrigin::kTargetReply:
      return "target_reply";
    case RouteOrigin::kCachedReply:
      return "cached_reply";
    case RouteOrigin::kReverseRequest:
      return "reverse_request";
    case RouteOrigin::kForwarded:
      return "forwarded";
    case RouteOrigin::kDelivered:
      return "delivered";
    case RouteOrigin::kSnooped:
      return "snooped";
    case RouteOrigin::kGratuitous:
      return "gratuitous";
    case RouteOrigin::kSeeded:
      return "seeded";
    case RouteOrigin::kMacFeedback:
      return "mac_feedback";
    case RouteOrigin::kRerrUnicast:
      return "rerr_unicast";
    case RouteOrigin::kRerrBroadcast:
      return "rerr_broadcast";
    case RouteOrigin::kPiggybackedRepair:
      return "piggybacked_repair";
  }
  return "?";
}

namespace {
// Thread-local so concurrent sweep runs (one run per worker thread) assign
// uids independently; Scenario resets it per run, making the sequence a
// deterministic function of the run alone — not of process history or of
// how many jobs the sweep used.
// manet-lint: allow(shared-mutable): thread-local and reset per Scenario;
// uids never feed back into simulation decisions, only into traces.
thread_local std::uint64_t t_nextUid = 1;

// Provenance ids follow the same regime as packet uids: thread-local, reset
// per Scenario, never consulted by the protocol — purely a trace join key.
// manet-lint: allow(shared-mutable): thread-local and reset per Scenario;
// provenance ids never feed back into simulation decisions, only traces.
thread_local std::uint64_t t_nextProvId = 1;
}  // namespace

RouteProvenance RouteProvenance::next(RouteOrigin origin, NodeId insertedBy,
                                      sim::Time bornAt, std::size_t hops) {
  RouteProvenance p;
  p.id = t_nextProvId++;
  p.origin = origin;
  p.insertedBy = insertedBy;
  p.bornAt = bornAt;
  p.hopsAtInsert = hops > 255 ? std::uint8_t{255}
                              : static_cast<std::uint8_t>(hops);
  return p;
}

void RouteProvenance::resetIdCounter() { t_nextProvId = 1; }

std::shared_ptr<Packet> Packet::make() {
  auto p = std::make_shared<Packet>();
  p->uid = t_nextUid++;
  return p;
}

void Packet::resetUidCounter() { t_nextUid = 1; }

std::shared_ptr<Packet> clone(const Packet& p) {
  return std::make_shared<Packet>(p);  // uid preserved: same logical packet
}

bool routeContainsLink(std::span<const NodeId> hops, LinkId link) {
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    if (hops[i] == link.from && hops[i + 1] == link.to) return true;
  }
  return false;
}

bool routeHasDuplicates(std::span<const NodeId> hops) {
  // Never allocates: this runs for every snooped route. Routes of 17 to
  // kSorted nodes are sorted in a copy on the stack; the rest are compared
  // pairwise, the fast path for short routes and a quadratic but rare one
  // for longer routes.
  constexpr std::size_t kSorted = 256;
  if (hops.size() > 16 && hops.size() <= kSorted) {
    std::array<NodeId, kSorted> sorted;
    const auto end = std::copy(hops.begin(), hops.end(), sorted.begin());
    std::sort(sorted.begin(), end);
    return std::adjacent_find(sorted.begin(), end) != end;
  }
  for (std::size_t i = 1; i < hops.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (hops[i] == hops[j]) return true;
    }
  }
  return false;
}

}  // namespace manet::net
