// Causal chain reconstruction over trace records.
//
// The trace layer stamps every record with the packet's uid (stable across
// hops: forwarding clones preserve it), a `cause` uid linking derived
// packets to what provoked them (RREQ <- the data packet that needed a
// route, RREP <- the RREQ it answers, RERR <- the packet whose transmission
// failed, gratuitous RREP <- the tapped data packet), and the provenance of
// the cache entry behind the event. CausalIndex ingests records — from a
// live RingBufferSink or a JSONL trace read back with readTraceFile — and
// answers the questions the paper's outcome counters cannot:
//   * the full life of one packet across every node it touched,
//   * the causal ancestry of any control packet back to the application
//     packet that started it,
//   * which cache insertion (origin, inserting node, age at failure) each
//     stale-route drop traces back to, bucketed into the attribution table
//     behind Table 3's invalid-cached-routes column,
//   * the run at a glance: event and drop totals, the fault timeline, and
//     each flow's originated / delivered / dropped-by-reason lifecycle.
//
// Everything here is deterministic: records keep ingestion order, all maps
// are ordered, and renderings are pure functions of the trace — the
// jobs-independence test compares rendered chains byte-for-byte across
// sweep worker counts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/trace.h"
#include "src/util/json.h"

namespace manet::telemetry {

/// One trace record, reduced to the fields causal analysis needs. Produced
/// either from a live TraceRecord or by parsing one JSONL line (enum-coded
/// fields stay strings so a CausalRecord round-trips through JSONL
/// unchanged).
struct CausalRecord {
  double t = 0.0;           // sim-time seconds
  std::string event;        // toString(TraceEvent)
  std::string reason;       // drop reason ("" unless a drop)
  net::NodeId node = 0;     // node where the event happened
  std::string kind;         // packet kind ("" when not packet-scoped)
  std::uint64_t uid = 0;    // packet uid (0 = not packet-scoped)
  std::uint64_t cause = 0;  // uid of the packet that caused this one
  net::NodeId src = 0;
  net::NodeId dst = 0;
  std::uint32_t flow = 0;   // CBR flow id (0 unless packet-scoped)
  std::int64_t detail = 0;
  // Provenance of the cache entry behind the event (id 0 = none).
  std::uint64_t prov = 0;
  std::string origin;       // toString(RouteOrigin)
  net::NodeId provNode = 0; // inserting node
  double born = 0.0;        // entry birth sim-time (seconds)
  unsigned provHops = 0;    // route length at insert
};

/// Read one parsed JSONL trace line into a CausalRecord. Returns false when
/// the line is not an object with a string "ev" field (not a trace record).
bool parseCausalLine(const util::JsonValue& line, CausalRecord& out);

/// Reduce a live TraceRecord to its causal fields (the same projection the
/// JSONL round-trip produces), used by CausalIndex::add.
CausalRecord toCausalRecord(const TraceRecord& r);

/// True for fault-plan events (node_crash, node_recover).
bool isFaultEvent(std::string_view event);

/// Stale-drop attribution: data-packet drops whose route failed underneath
/// them (link_fail_no_salvage) or was intercepted by the negative cache,
/// grouped by the origin of the cache entry that supplied the route and by
/// the entry's age at the moment of the drop.
struct StaleReport {
  struct Row {
    std::string origin;     // how the blamed entry was learned
    std::string ageBucket;  // entry age at drop time (see ageBucketLabel)
    std::uint64_t drops = 0;
  };
  std::vector<Row> rows;            // sorted by (origin, bucket)
  std::uint64_t staleDrops = 0;     // all qualifying drops
  std::uint64_t attributed = 0;     // ...that carried a provenance record
  std::uint64_t distinctEntries = 0;  // distinct blamed cache entries

  /// Fixed-width text table (deterministic; ends with an attribution
  /// summary line). Used by manet_trace --stale-report and CI.
  std::string render() const;
};

/// Bucket label for an entry age in seconds: "<1s", "1-2s", "2-5s",
/// "5-10s", ">=10s" (the paper's Nt and timeout scales make these the
/// interesting decision boundaries).
std::string_view ageBucketLabel(double ageSeconds);

class CausalIndex {
 public:
  CausalIndex() = default;
  /// Ingest records in order (e.g. readTraceFile's).
  explicit CausalIndex(std::vector<CausalRecord> records);

  void add(CausalRecord r);
  /// Convert-and-add a live record (ring snapshots, tests).
  void add(const TraceRecord& r);

  const std::vector<CausalRecord>& records() const { return records_; }

  /// Every record carrying `uid`, in ingestion (= emission) order.
  std::vector<const CausalRecord*> packetRecords(std::uint64_t uid) const;

  /// Causal ancestry of `uid`: root first, `uid` last. Follows `cause`
  /// links; cycle-guarded (a malformed trace cannot loop the walk).
  std::vector<std::uint64_t> ancestry(std::uint64_t uid) const;

  /// Packets directly caused by `uid`, ascending.
  std::vector<std::uint64_t> causedBy(std::uint64_t uid) const;

  /// Render the full causal chain of `uid` as deterministic text: its
  /// ancestry root -> uid, each packet's records in order, then the uids it
  /// caused. The jobs-independence test compares this output byte-for-byte.
  std::string renderChain(std::uint64_t uid) const;

  StaleReport staleReport() const;

  /// Whole-trace summary as deterministic text (manet_trace's default
  /// output): record and event totals, drop reasons, the fault timeline
  /// (first 40 entries), each flow's lifecycle with drops by reason, and a
  /// closing originated / delivered / dropped line that leaves out
  /// mac_duplicate drops (redundant copies of frames also received).
  std::string renderSummary() const;

 private:
  std::vector<CausalRecord> records_;
  /// Ordered maps: iteration feeds deterministic output.
  std::map<std::uint64_t, std::vector<std::size_t>> byUid_;
  std::map<std::uint64_t, std::uint64_t> causeOf_;
  std::map<std::uint64_t, std::vector<std::uint64_t>> childrenOf_;
};

}  // namespace manet::telemetry
