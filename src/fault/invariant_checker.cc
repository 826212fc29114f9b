#include "src/fault/invariant_checker.h"

#include <cstdlib>

#include "src/core/dsr_agent.h"
#include "src/net/network.h"

namespace manet::fault {

namespace {

std::string timeStr(sim::Time t) {
  // manet-lint: allow(float-time): violation-message formatting only
  return "t=" + std::to_string(t.toSeconds()) + "s";
}

}  // namespace

InvariantChecker::InvariantChecker(std::size_t numNodes)
    : numNodes_(numNodes), down_(numNodes, false) {}

bool InvariantChecker::enabledFromEnv() {
  const char* v = std::getenv("MANET_CHECK");  // NOLINT(concurrency-mt-unsafe)
  return v != nullptr && v[0] == '1';
}

void InvariantChecker::record(const telemetry::TraceRecord& r) {
  using telemetry::TraceEvent;
  ++recordsChecked_;

  // Scheduler time must never run backwards.
  if (r.at < lastAt_) {
    noteViolation("time went backwards: " + timeStr(r.at) + " after " +
                  timeStr(lastAt_) + " (" + toString(r.event) + ")");
  }
  lastAt_ = std::max(lastAt_, r.at);

  // Structural sanity: exactly drop records carry a reason.
  if (r.event == TraceEvent::kPktDrop) {
    if (r.reason == telemetry::DropReason::kNone) {
      noteViolation("drop record without a reason at " + timeStr(r.at));
    }
    ++dropsByReason_[toString(r.reason)];
  } else if (r.reason != telemetry::DropReason::kNone) {
    noteViolation(std::string("non-drop record (") + toString(r.event) +
                  ") carries drop reason " + toString(r.reason));
  }

  // Data-packet lifecycle: events only after exactly one origination.
  if (r.kind == net::PacketKind::kData && r.uid != 0) {
    switch (r.event) {
      case TraceEvent::kPktOriginate:
        ++originated_;
        if (!originatedUids_.insert(r.uid).second) {
          noteViolation("uid " + std::to_string(r.uid) +
                        " originated twice (" + timeStr(r.at) + ")");
        }
        break;
      case TraceEvent::kPktForward:
      case TraceEvent::kPktDeliver:
      case TraceEvent::kPktDrop:
        if (r.event == TraceEvent::kPktDeliver) ++delivered_;
        if (originatedUids_.count(r.uid) == 0) {
          noteViolation(std::string(toString(r.event)) + " of uid " +
                        std::to_string(r.uid) + " before its origination (" +
                        timeStr(r.at) + ")");
        }
        break;
      default:
        break;
    }
  }

  // Fault alternation and down-node silence.
  switch (r.event) {
    case TraceEvent::kNodeCrash:
      ++crashes_;
      if (r.node < numNodes_) {
        if (down_[r.node]) {
          noteViolation("node " + std::to_string(r.node) +
                        " crashed while already down (" + timeStr(r.at) + ")");
        }
        down_[r.node] = true;
      }
      break;
    case TraceEvent::kNodeRecover:
      ++recoveries_;
      if (r.node < numNodes_) {
        if (!down_[r.node]) {
          noteViolation("node " + std::to_string(r.node) +
                        " recovered while already up (" + timeStr(r.at) + ")");
        }
        down_[r.node] = false;
      }
      break;
    case TraceEvent::kPktForward:
    case TraceEvent::kPktDeliver:
      if (r.node < numNodes_ && down_[r.node]) {
        noteViolation("down node " + std::to_string(r.node) + " " +
                      toString(r.event) + "ed a packet (" + timeStr(r.at) +
                      "); its radio should be off");
      }
      break;
    default:
      break;
  }
}

void InvariantChecker::expectEq(std::uint64_t traced, std::uint64_t counted,
                                const char* what) {
  if (traced != counted) {
    noteViolation(std::string(what) + ": " + std::to_string(traced) +
                  " traced vs " + std::to_string(counted) + " counted");
  }
}

void InvariantChecker::finalCheck(const metrics::Metrics& m) {
  using telemetry::DropReason;
  // Packet conservation: every counted origination/delivery/drop has its
  // trace record, reason by reason — counters and traces cannot drift.
  expectEq(originated_, m.dataOriginated, "originations");
  expectEq(delivered_, m.dataDelivered, "deliveries");
  const auto drops = [this](DropReason r) {
    const auto it = dropsByReason_.find(toString(r));
    return it == dropsByReason_.end() ? std::uint64_t{0} : it->second;
  };
  expectEq(drops(DropReason::kSendBufferTimeout), m.dropSendBufferTimeout,
           "send-buffer-timeout drops");
  expectEq(drops(DropReason::kSendBufferOverflow), m.dropSendBufferOverflow,
           "send-buffer-overflow drops");
  expectEq(drops(DropReason::kIfqFull), m.dropIfqFull, "ifq-full drops");
  expectEq(drops(DropReason::kLinkFailNoSalvage), m.dropLinkFailNoSalvage,
           "link-fail drops");
  expectEq(drops(DropReason::kNegativeCache), m.dropNegativeCache,
           "negative-cache drops");
  expectEq(drops(DropReason::kTtlExpired), m.dropTtlExpired,
           "ttl-expired drops");
  expectEq(drops(DropReason::kMacDuplicate), m.dropMacDuplicate,
           "mac-duplicate drops");
  expectEq(drops(DropReason::kNodeDown), m.dropNodeDown, "node-down drops");
  std::uint64_t totalTraced = 0;
  for (const auto& [reason, n] : dropsByReason_) totalTraced += n;
  expectEq(totalTraced, m.totalDropped(), "total drops");
  // Fault events reconcile too.
  expectEq(crashes_, m.faultNodeCrashes, "node crashes");
  expectEq(recoveries_, m.faultNodeRecoveries, "node recoveries");
}

void checkCacheConsistency(net::Network& network, InvariantChecker& checker) {
  const sim::Time now = network.scheduler().now();
  for (std::size_t i = 0; i < network.size(); ++i) {
    net::Node& node = network.node(static_cast<net::NodeId>(i));
    if (node.protocol() != net::Protocol::kDsr) continue;
    core::DsrAgent& dsr = node.dsr();
    const core::NegativeCache& neg = dsr.negativeCache();
    dsr.routeCache().forEachRoute([&](std::span<const net::NodeId> route) {
      for (std::size_t k = 0; k + 1 < route.size(); ++k) {
        const net::LinkId link{route[k], route[k + 1]};
        if (neg.peek(link, now)) {
          checker.noteViolation(
              "node " + std::to_string(node.id()) + " caches link " +
              std::to_string(link.from) + "->" + std::to_string(link.to) +
              " while it is negatively cached (" + timeStr(now) +
              "): mutual exclusion broken");
        }
      }
    });
  }
}

}  // namespace manet::fault
