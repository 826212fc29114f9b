// Simulation trace layer: typed per-event records with pluggable sinks.
//
// The paper's analysis hinges on *why* packets die (stale cache hits, RERR
// propagation, negative-cache drops), which end-of-run scalar counters in
// metrics/ cannot answer. The trace layer emits one typed record per
// protocol event — packet lifecycle (originate/forward/deliver/drop with
// reason), cache behaviour (hit/miss/evict/expire), route-error propagation
// and link-break detection — stamped with simulated time and node id.
//
// Design constraints:
//  * Zero overhead when disabled: every hook guards on
//    `tracer && tracer->enabled()`, which is a null/empty check; no record
//    is even constructed unless a sink is attached.
//  * Sinks are simple: a bounded in-memory ring (post-mortem debugging,
//    tests) and a JSONL file writer (machine-readable artifacts, read back
//    by tools/manet_trace).
//  * Drop records are emitted at exactly the sites that increment the
//    corresponding Metrics drop counters, so a trace always reconciles with
//    the final counters (asserted by tests/integration/trace_reconcile).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace manet::telemetry {

enum class TraceEvent : std::uint8_t {
  kPktOriginate,    // application handed a data packet to the routing layer
  kPktForward,      // intermediate node relayed a source-routed data packet
  kPktDeliver,      // data packet reached its destination
  kPktDrop,         // packet discarded; `reason` says why
  kCacheHit,        // route served from a cache (detail: 1 valid / 0 stale
                    // per the link oracle, -1 unknown)
  kCacheMiss,       // lookup failed, triggering route discovery
  kCacheEvict,      // capacity eviction (detail: entries removed)
  kCacheExpire,     // timer-based expiry pruned links (detail: count)
  kCacheInsert,     // route (or link set) inserted into a cache; the record
                    // carries the entry's provenance (origin, born, hops)
  kNegCacheInsert,  // broken link quarantined
  kNegCacheExpire,  // quarantine aged out (detail: links expired)
  kRerrOriginate,   // route error transmitted by the detecting node
  kRerrForward,     // route error relayed (detail: 1 = wide rebroadcast)
  kLinkBreak,       // MAC retry exhaustion (detail: 1 = false positive,
                    // link geometrically still up)
  // Fault-injection events (src/fault/).
  kNodeCrash,       // node's radio went down
  kNodeRecover,     // node's radio came back up (detail: 1 = caches wiped)
};
const char* toString(TraceEvent e);

/// Why a packet was dropped. Mirrors the Metrics drop counters one-to-one.
enum class DropReason : std::uint8_t {
  kNone = 0,
  kSendBufferTimeout,
  kSendBufferOverflow,
  kIfqFull,
  kLinkFailNoSalvage,
  kNegativeCache,
  kTtlExpired,
  kMacDuplicate,
  kNodeDown,  // flushed from the MAC queue when the node crashed
};
const char* toString(DropReason r);

/// One trace record. Interpretation of src/dst depends on the event: packet
/// events carry the packet's endpoints; link/route-error events carry the
/// broken link's endpoints.
struct TraceRecord {
  sim::Time at;
  TraceEvent event = TraceEvent::kPktOriginate;
  DropReason reason = DropReason::kNone;
  net::NodeId node = 0;  // node where the event happened
  net::PacketKind kind = net::PacketKind::kData;
  std::uint64_t uid = 0;  // packet uid; 0 when not packet-scoped
  net::NodeId src = 0;
  net::NodeId dst = 0;
  std::uint32_t flowId = 0;
  std::uint64_t seqInFlow = 0;
  std::int64_t detail = 0;        // event-specific (see TraceEvent docs)
  /// Uid of the packet that caused this packet to exist (0 = root / n.a.).
  std::uint64_t cause = 0;
  /// Provenance of the cache entry behind this event: for kCacheInsert /
  /// kNegCacheInsert the entry being created, for packet events the entry
  /// whose route the packet follows, for kCacheHit the entry served.
  /// prov.id == 0 means "no cache entry involved" and suppresses emission.
  net::RouteProvenance prov{};
};

/// Fill the packet-scoped fields of a record from a packet.
TraceRecord packetRecord(TraceEvent event, sim::Time at, net::NodeId node,
                         const net::Packet& p,
                         DropReason reason = DropReason::kNone);

/// Render a record as one JSON object (no trailing newline).
std::string toJson(const TraceRecord& r);

/// Sink interface: receives every record emitted while attached.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceRecord& r) = 0;
  virtual void flush() {}
};

/// Bounded in-memory ring: keeps the most recent `capacity` records.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity);

  void record(const TraceRecord& r) override;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return buf_.size(); }
  std::uint64_t totalRecorded() const { return total_; }

  /// Records in chronological order (oldest retained first).
  std::vector<TraceRecord> snapshot() const;
  void clear();

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // next write position once full
  std::uint64_t total_ = 0;
  std::vector<TraceRecord> buf_;
};

/// Streams records as JSON Lines to a file (one object per line), read back
/// by readTraceFile (tools/manet_trace and the trace tests).
class JsonlFileSink final : public TraceSink {
 public:
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;

  JsonlFileSink(const JsonlFileSink&) = delete;
  JsonlFileSink& operator=(const JsonlFileSink&) = delete;

  bool ok() const { return f_ != nullptr; }
  const std::string& path() const { return path_; }
  std::uint64_t recordsWritten() const { return written_; }

  void record(const TraceRecord& r) override;
  void flush() override;

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  std::uint64_t written_ = 0;
};

/// Dispatch point owned by the Network. Hooks hold a Tracer* (possibly
/// null) and emit through it; with no sinks attached `enabled()` is false
/// and hooks skip record construction entirely.
class Tracer {
 public:
  bool enabled() const { return !sinks_.empty(); }

  /// Attach a sink (non-owning; the caller keeps it alive for the run).
  void addSink(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  void emit(const TraceRecord& r) {
    for (TraceSink* s : sinks_) s->record(r);
  }

  void flush() {
    for (TraceSink* s : sinks_) s->flush();
  }

  /// Bind the simulation clock so sources without scheduler access (caches)
  /// can stamp records.
  void bindClock(const sim::Scheduler* sched) { sched_ = sched; }
  sim::Time now() const {
    return sched_ != nullptr ? sched_->now() : sim::Time::zero();
  }

 private:
  std::vector<TraceSink*> sinks_;
  const sim::Scheduler* sched_ = nullptr;
};

}  // namespace manet::telemetry
