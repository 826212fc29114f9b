// Perfetto export tests: the streaming writer must always leave a valid
// JSON array (checked with the repo's own parser), record emission must lay
// out node/fault tracks with provenance args, and the offline converter
// must round-trip records read back from a trace.
#include "src/telemetry/perfetto.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/telemetry/trace.h"
#include "src/util/json.h"

namespace manet::telemetry {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

util::JsonValue parseFile(const std::string& path) {
  std::string err;
  const auto doc = util::parseJson(slurp(path), &err);
  EXPECT_TRUE(doc.has_value()) << err;
  return doc.value_or(util::JsonValue{});
}

TEST(PerfettoTest, EmptyWriterClosesToValidEmptyArray) {
  const std::string path = ::testing::TempDir() + "/perfetto_empty.json";
  { PerfettoWriter w(path); }  // destructor closes the array
  const util::JsonValue doc = parseFile(path);
  ASSERT_TRUE(doc.isArray());
  EXPECT_TRUE(doc.asArray().empty());
  std::remove(path.c_str());
}

TEST(PerfettoTest, WriterEmitsMetadataAndInstantEvents) {
  const std::string path = ::testing::TempDir() + "/perfetto_events.json";
  {
    PerfettoWriter w(path);
    ASSERT_TRUE(w.ok());
    w.processName(kPerfettoNodesPid, "nodes");
    w.threadName(kPerfettoNodesPid, 3, "node 3");
    w.instant("pkt_drop:DATA", "packet", 1500.0, kPerfettoNodesPid, 3,
              "{\"uid\":42}");
    w.instant("node_crash", "fault", 2000.0, kPerfettoNodesPid, 3, {},
              /*globalScope=*/true);
    EXPECT_EQ(w.eventsWritten(), 4u);
  }
  const util::JsonValue doc = parseFile(path);
  ASSERT_TRUE(doc.isArray());
  const util::JsonArray& a = doc.asArray();
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0].stringAt("ph"), "M");
  EXPECT_EQ(a[0].stringAt("name"), "process_name");
  EXPECT_EQ(a[2].stringAt("ph"), "i");
  EXPECT_EQ(a[2].stringAt("s"), "t");  // thread scope by default
  EXPECT_DOUBLE_EQ(a[2].numberAt("ts"), 1500.0);
  ASSERT_NE(a[2].find("args"), nullptr);
  EXPECT_DOUBLE_EQ(a[2].find("args")->numberAt("uid"), 42.0);
  EXPECT_EQ(a[3].stringAt("s"), "g");  // fault instants span the view
  std::remove(path.c_str());
}

TEST(PerfettoTest, SinkConvertsLiveRecordsWithProvenanceArgs) {
  const std::string path = ::testing::TempDir() + "/perfetto_emit.json";
  {
    PerfettoWriter w(path);
    ASSERT_TRUE(w.ok());
    TraceRecord t;
    t.at = sim::Time::seconds(1);
    t.event = TraceEvent::kPktDrop;
    t.reason = DropReason::kLinkFailNoSalvage;
    t.node = 4;
    t.kind = net::PacketKind::kData;
    t.uid = 10;
    t.cause = 9;
    t.prov = net::RouteProvenance{3, net::RouteOrigin::kCachedReply, 2,
                                  sim::Time::fromSeconds(0.25), 5};
    perfettoEmitRecord(w, toCausalRecord(t));
    TraceRecord crash;
    crash.at = sim::Time::seconds(2);
    crash.event = TraceEvent::kNodeCrash;
    crash.node = 4;
    perfettoEmitRecord(w, toCausalRecord(crash));
  }
  const util::JsonValue doc = parseFile(path);
  ASSERT_TRUE(doc.isArray());
  bool sawDrop = false, sawCrash = false;
  for (const util::JsonValue& ev : doc.asArray()) {
    const std::string name = ev.stringAt("name");
    if (name == "pkt_drop:DATA") {
      sawDrop = true;
      EXPECT_EQ(ev.stringAt("cat"), "packet");
      const util::JsonValue* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_DOUBLE_EQ(args->numberAt("uid"), 10.0);
      EXPECT_DOUBLE_EQ(args->numberAt("cause"), 9.0);
      EXPECT_DOUBLE_EQ(args->numberAt("prov"), 3.0);
      EXPECT_EQ(args->stringAt("origin"), "cached_reply");
    }
    if (name == "node_crash") {
      sawCrash = true;
      EXPECT_EQ(ev.stringAt("s"), "g");
    }
  }
  EXPECT_TRUE(sawDrop);
  EXPECT_TRUE(sawCrash);
  std::remove(path.c_str());
}

TEST(PerfettoTest, ConvertJsonlRoundTripsTraceLines) {
  const std::string path = ::testing::TempDir() + "/perfetto_conv.json";
  TraceRecord t;
  t.at = sim::Time::seconds(3);
  t.event = TraceEvent::kPktOriginate;
  t.node = 1;
  t.kind = net::PacketKind::kData;
  t.uid = 5;
  CausalRecord parsed;
  ASSERT_TRUE(parseCausalLine(*util::parseJson(toJson(t)), parsed));
  const std::vector<CausalRecord> records = {parsed};
  const long events = convertToPerfetto(records, path);
  ASSERT_GT(events, 0);
  const util::JsonValue doc = parseFile(path);
  ASSERT_TRUE(doc.isArray());
  bool sawOriginate = false;
  for (const util::JsonValue& ev : doc.asArray()) {
    if (ev.stringAt("name") == "pkt_originate:DATA") sawOriginate = true;
  }
  EXPECT_TRUE(sawOriginate);
  // An unwritable destination (parent component is a regular file, so
  // parent-dir creation cannot help) reports failure as a negative count.
  const std::string blocker = ::testing::TempDir() + "/perfetto_blocker";
  { std::ofstream(blocker) << "x"; }
  EXPECT_LT(convertToPerfetto(records, blocker + "/x.json"), 0);
  std::remove(path.c_str());
  std::remove(blocker.c_str());
}

}  // namespace
}  // namespace manet::telemetry
