// Causal layer unit tests: JSONL line parsing, live-record projection,
// ancestry / child walks, chain rendering, the stale-drop attribution
// report, the whole-trace summary, and the validating JSONL reader feeding
// all of it.
#include "src/telemetry/causal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/telemetry/trace.h"
#include "src/telemetry/trace_reader.h"
#include "src/util/json.h"

namespace manet::telemetry {
namespace {

CausalRecord rec(double t, const char* event, std::uint64_t uid,
                 std::uint64_t cause = 0) {
  CausalRecord r;
  r.t = t;
  r.event = event;
  r.uid = uid;
  r.cause = cause;
  return r;
}

// ----------------------------------------------------------- age buckets

TEST(CausalTest, AgeBucketBoundaries) {
  EXPECT_EQ(ageBucketLabel(0.0), "<1s");
  EXPECT_EQ(ageBucketLabel(0.999), "<1s");
  EXPECT_EQ(ageBucketLabel(1.0), "1-2s");
  EXPECT_EQ(ageBucketLabel(1.999), "1-2s");
  EXPECT_EQ(ageBucketLabel(2.0), "2-5s");
  EXPECT_EQ(ageBucketLabel(5.0), "5-10s");
  EXPECT_EQ(ageBucketLabel(10.0), ">=10s");
  EXPECT_EQ(ageBucketLabel(1e9), ">=10s");
}

// ------------------------------------------------------------ projection

TEST(CausalTest, ToCausalRecordCarriesProvenanceAndCause) {
  TraceRecord t;
  t.at = sim::Time::seconds(3);
  t.event = TraceEvent::kPktDrop;
  t.reason = DropReason::kLinkFailNoSalvage;
  t.node = 7;
  t.kind = net::PacketKind::kData;
  t.uid = 42;
  t.cause = 41;
  t.src = 1;
  t.dst = 9;
  t.flowId = 6;
  t.prov = net::RouteProvenance{99, net::RouteOrigin::kSnooped, 5,
                                sim::Time::seconds(1), 4};

  const CausalRecord r = toCausalRecord(t);
  EXPECT_DOUBLE_EQ(r.t, 3.0);
  EXPECT_EQ(r.event, "pkt_drop");
  EXPECT_EQ(r.reason, "link_fail_no_salvage");
  EXPECT_EQ(r.node, 7u);
  EXPECT_EQ(r.kind, "DATA");
  EXPECT_EQ(r.uid, 42u);
  EXPECT_EQ(r.cause, 41u);
  EXPECT_EQ(r.flow, 6u);
  EXPECT_EQ(r.prov, 99u);
  EXPECT_EQ(r.origin, "snooped");
  EXPECT_EQ(r.provNode, 5u);
  EXPECT_DOUBLE_EQ(r.born, 1.0);
  EXPECT_EQ(r.provHops, 4u);
}

TEST(CausalTest, ParseCausalLineRoundTripsThroughJsonl) {
  TraceRecord t;
  t.at = sim::Time::seconds(2);
  t.event = TraceEvent::kCacheHit;
  t.node = 3;
  t.kind = net::PacketKind::kData;
  t.uid = 17;
  t.cause = 11;
  t.src = 3;
  t.dst = 8;
  t.flowId = 4;
  t.detail = 1;
  t.prov = net::RouteProvenance{5, net::RouteOrigin::kTargetReply, 8,
                                sim::Time::fromSeconds(0.5), 3};

  const auto line = util::parseJson(toJson(t));
  ASSERT_TRUE(line.has_value());
  CausalRecord parsed;
  ASSERT_TRUE(parseCausalLine(*line, parsed));
  const CausalRecord direct = toCausalRecord(t);
  EXPECT_DOUBLE_EQ(parsed.t, direct.t);
  EXPECT_EQ(parsed.event, direct.event);
  EXPECT_EQ(parsed.node, direct.node);
  EXPECT_EQ(parsed.kind, direct.kind);
  EXPECT_EQ(parsed.uid, direct.uid);
  EXPECT_EQ(parsed.cause, direct.cause);
  EXPECT_EQ(parsed.src, direct.src);
  EXPECT_EQ(parsed.dst, direct.dst);
  EXPECT_EQ(parsed.flow, direct.flow);
  EXPECT_EQ(parsed.flow, 4u);
  EXPECT_EQ(parsed.detail, direct.detail);
  EXPECT_EQ(parsed.prov, direct.prov);
  EXPECT_EQ(parsed.origin, direct.origin);
  EXPECT_EQ(parsed.provNode, direct.provNode);
  EXPECT_DOUBLE_EQ(parsed.born, direct.born);
  EXPECT_EQ(parsed.provHops, direct.provHops);
}

TEST(CausalTest, ParseCausalLineRejectsNonRecords) {
  CausalRecord r;
  EXPECT_FALSE(parseCausalLine(*util::parseJson("{\"foo\":1}"), r));
  EXPECT_FALSE(parseCausalLine(*util::parseJson("{\"ev\":1}"), r));
  EXPECT_FALSE(parseCausalLine(*util::parseJson("[\"ev\"]"), r));
  EXPECT_FALSE(parseCausalLine(util::JsonValue(), r));
}

// ----------------------------------------------------------- chain walks

TEST(CausalTest, AncestryFollowsCauseLinksRootFirst) {
  CausalIndex idx;
  idx.add(rec(0.0, "pkt_originate", 1));      // data packet (root)
  idx.add(rec(0.1, "pkt_drop", 2, 1));        // RREQ caused by it
  idx.add(rec(0.2, "pkt_deliver", 3, 2));     // RREP caused by the RREQ
  const auto chain = idx.ancestry(3);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], 1u);
  EXPECT_EQ(chain[1], 2u);
  EXPECT_EQ(chain[2], 3u);
}

TEST(CausalTest, CausedByListsDirectChildrenAscending) {
  CausalIndex idx;
  idx.add(rec(0.0, "pkt_originate", 1));
  idx.add(rec(0.1, "pkt_forward", 5, 1));
  idx.add(rec(0.2, "pkt_forward", 3, 1));
  idx.add(rec(0.3, "pkt_forward", 9, 3));
  const auto kids = idx.causedBy(1);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0], 3u);
  EXPECT_EQ(kids[1], 5u);
}

TEST(CausalTest, AncestryIsCycleGuarded) {
  CausalIndex idx;
  idx.add(rec(0.0, "pkt_forward", 4, 5));  // malformed: 4 <- 5 <- 4
  idx.add(rec(0.1, "pkt_forward", 5, 4));
  const auto chain = idx.ancestry(4);  // must terminate
  EXPECT_GE(chain.size(), 2u);
  EXPECT_EQ(chain.back(), 4u);
}

TEST(CausalTest, RenderChainIsDeterministicAndComplete) {
  CausalIndex a;
  a.add(rec(0.0, "pkt_originate", 1));
  a.add(rec(0.1, "pkt_forward", 2, 1));
  CausalIndex b;
  b.add(rec(0.0, "pkt_originate", 1));
  b.add(rec(0.1, "pkt_forward", 2, 1));

  const std::string out = a.renderChain(2);
  EXPECT_EQ(out, b.renderChain(2));
  EXPECT_NE(out.find("causal chain for uid 2"), std::string::npos);
  EXPECT_NE(out.find("packet 1"), std::string::npos);
  EXPECT_NE(out.find("packet 2 *"), std::string::npos);
  EXPECT_NE(a.renderChain(1).find("caused: 2"), std::string::npos);
}

// ------------------------------------------------------ stale attribution

TEST(CausalTest, StaleReportAttributesProvenancedDrops) {
  CausalIndex idx;
  CausalRecord withProv = rec(4.5, "pkt_drop", 10);
  withProv.kind = "DATA";
  withProv.reason = "link_fail_no_salvage";
  withProv.prov = 77;
  withProv.origin = "snooped";
  withProv.born = 3.0;  // age 1.5s -> bucket "1-2s"
  idx.add(withProv);

  CausalRecord negDrop = withProv;
  negDrop.uid = 11;
  negDrop.reason = "negative_cache";
  negDrop.t = 14.0;  // age 11s -> bucket ">=10s"
  idx.add(negDrop);

  CausalRecord unattributed = rec(5.0, "pkt_drop", 12);
  unattributed.kind = "DATA";
  unattributed.reason = "link_fail_no_salvage";
  idx.add(unattributed);

  // Non-qualifying records do not count: control packet, benign drop.
  CausalRecord rreqDrop = rec(5.1, "pkt_drop", 13);
  rreqDrop.kind = "RREQ";
  rreqDrop.reason = "link_fail_no_salvage";
  idx.add(rreqDrop);
  CausalRecord ttlDrop = rec(5.2, "pkt_drop", 14);
  ttlDrop.kind = "DATA";
  ttlDrop.reason = "ttl_expired";
  idx.add(ttlDrop);

  const StaleReport rep = idx.staleReport();
  EXPECT_EQ(rep.staleDrops, 3u);
  EXPECT_EQ(rep.attributed, 2u);
  EXPECT_EQ(rep.distinctEntries, 1u);
  ASSERT_EQ(rep.rows.size(), 2u);
  EXPECT_EQ(rep.rows[0].origin, "snooped");
  EXPECT_EQ(rep.rows[0].ageBucket, "1-2s");
  EXPECT_EQ(rep.rows[0].drops, 1u);
  EXPECT_EQ(rep.rows[1].ageBucket, ">=10s");

  const std::string text = rep.render();
  EXPECT_NE(text.find("stale drops: 3"), std::string::npos);
  EXPECT_NE(text.find("attributed: 2 (66.7%)"), std::string::npos);
  EXPECT_NE(text.find("distinct entries: 1"), std::string::npos);
}

TEST(CausalTest, StaleReportEmptyTraceRendersCleanly) {
  const StaleReport rep = CausalIndex{}.staleReport();
  EXPECT_EQ(rep.staleDrops, 0u);
  EXPECT_NE(rep.render().find("attributed: 0 (100.0%)"), std::string::npos);
}

// ----------------------------------------------------------- summary

CausalRecord packetRec(double t, const char* event, std::uint64_t uid,
                       std::uint32_t flow, const char* reason = "") {
  CausalRecord r = rec(t, event, uid);
  r.kind = "DATA";
  r.flow = flow;
  r.reason = reason;
  return r;
}

TEST(CausalTest, RenderSummaryCountsFlowsFaultsAndTotals) {
  CausalIndex idx;
  idx.add(packetRec(0.5, "pkt_originate", 1, 1));
  idx.add(packetRec(0.6, "pkt_originate", 2, 2));
  CausalRecord crash = rec(1.0, "node_crash", 0);
  crash.node = 4;
  idx.add(crash);
  idx.add(packetRec(1.2, "pkt_deliver", 1, 1));
  idx.add(packetRec(1.3, "pkt_drop", 1, 1, "mac_duplicate"));
  CausalRecord crash7 = rec(2.0, "node_crash", 0);
  crash7.node = 7;
  idx.add(crash7);
  idx.add(packetRec(2.5, "pkt_drop", 2, 2, "link_fail_no_salvage"));
  CausalRecord recover = rec(3.0, "node_recover", 0);
  recover.node = 4;
  recover.detail = 1;  // caches wiped
  idx.add(recover);
  idx.add(packetRec(3.5, "pkt_originate", 3, 2));

  EXPECT_EQ(idx.renderSummary(),
            "9 records, t = [0.500 s, 3.500 s]\n"
            "packet-scoped 6, with cause link 0, with provenance 0\n"
            "\n"
            "event totals:\n"
            "  node_crash                  2\n"
            "  node_recover                1\n"
            "  pkt_deliver                 1\n"
            "  pkt_drop                    2\n"
            "  pkt_originate               3\n"
            "\n"
            "drop reasons:\n"
            "  link_fail_no_salvage            1\n"
            "  mac_duplicate                   1\n"
            "\n"
            "fault timeline (3 events):\n"
            "  t=    1.000 s  node 4 crashed\n"
            "  t=    2.000 s  node 7 crashed\n"
            "  t=    3.000 s  node 4 recovered (caches wiped)\n"
            "\n"
            "per-flow lifecycle (flow: originated -> delivered, drops by"
            " reason):\n"
            "  flow  1:      1 ->      1  (100.0% delivered, 0 lost)\n"
            "           mac_duplicate               1\n"
            "  flow  2:      2 ->      0  (  0.0% delivered, 2 lost)\n"
            "           link_fail_no_salvage        1\n"
            "\n"
            // mac_duplicate is a redundant copy, not a lost packet.
            "originated 3, delivered 1, dropped 1"
            " (in-flight/buffered at end: 1)\n");
}

TEST(CausalTest, RenderSummaryCapsFaultTimelineAtForty) {
  CausalIndex idx;
  for (int i = 0; i < 42; ++i) {
    CausalRecord r = rec(i, i % 2 == 0 ? "node_crash" : "node_recover", 0);
    r.node = static_cast<net::NodeId>(i / 2);
    idx.add(r);
  }
  const std::string out = idx.renderSummary();
  EXPECT_NE(out.find("fault timeline (42 events):\n"), std::string::npos);
  EXPECT_NE(out.find("  t=   38.000 s  node 19 crashed\n"
                     "  t=   39.000 s  node 19 recovered\n"
                     "  ... 2 more\n"),
            std::string::npos);
  EXPECT_EQ(out.find("t=   40.000 s"), std::string::npos);
}

// ------------------------------------------------------- checked reading

TEST(CausalTest, CheckedReaderReportsMalformedLinesWithNumbers) {
  const std::string path = ::testing::TempDir() + "/causal_checked.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"ev\":\"pkt_originate\",\"uid\":1}\n";
    out << "this is not json\n";
    out << "{\"ev\":\"pkt_deliver\",\"uid\":1}\n";
    out << "{\"ev\":\"pkt_drop\",\"uid\":2\n";  // truncated tail
  }
  const auto result = readTraceFile(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->records.size(), 2u);
  ASSERT_EQ(result->errors.size(), 2u);
  EXPECT_EQ(result->errors[0].rfind("line 2:", 0), 0u) << result->errors[0];
  EXPECT_EQ(result->errors[1].rfind("line 4:", 0), 0u) << result->errors[1];
  std::remove(path.c_str());
}

TEST(CausalTest, CheckedReaderMissingFileIsNullopt) {
  EXPECT_FALSE(
      readTraceFile("/nonexistent/causal_nope.jsonl").has_value());
}

TEST(CausalTest, FromLinesSkipsNonRecordLines) {
  const std::string path = ::testing::TempDir() + "/causal_nonrecord.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"ev\":\"pkt_originate\",\"uid\":7,\"t\":0.5}\n";
    out << "{\"not_a_record\":true}\n";
    out << "{\"ev\":\"pkt_deliver\",\"uid\":7,\"t\":0.9}\n";
  }
  auto read = readTraceFile(path);
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->errors.size(), 1u);
  EXPECT_EQ(read->errors[0], "line 2: not a trace record");
  const CausalIndex idx(std::move(read->records));
  EXPECT_EQ(idx.records().size(), 2u);
  EXPECT_EQ(idx.packetRecords(7).size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace manet::telemetry
