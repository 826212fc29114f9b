#include "src/telemetry/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/net/packet.h"
#include "src/sim/scheduler.h"
#include "src/telemetry/trace_reader.h"
#include "src/util/json.h"

namespace manet::telemetry {
namespace {

TraceRecord dropRecord(std::uint64_t uid, net::NodeId node) {
  TraceRecord r;
  r.at = sim::Time::millis(1500);
  r.event = TraceEvent::kPktDrop;
  r.reason = DropReason::kIfqFull;
  r.node = node;
  r.kind = net::PacketKind::kData;
  r.uid = uid;
  r.src = 1;
  r.dst = 2;
  r.flowId = 3;
  r.seqInFlow = 4;
  return r;
}

TEST(TracerTest, DisabledWithoutSinks) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.emit(dropRecord(1, 0));  // must be a harmless no-op
  t.flush();
}

TEST(TracerTest, DispatchesToAllSinks) {
  Tracer t;
  RingBufferSink a(8), b(8);
  t.addSink(&a);
  t.addSink(&b);
  EXPECT_TRUE(t.enabled());
  t.emit(dropRecord(1, 5));
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(a.snapshot()[0].node, 5u);
}

TEST(TracerTest, BoundClockStampsNow) {
  sim::Scheduler sched;
  Tracer t;
  t.bindClock(&sched);
  sim::Time seen;
  sched.scheduleAt(sim::Time::seconds(2), [&] { seen = t.now(); });
  sched.run();
  EXPECT_EQ(seen, sim::Time::seconds(2));
}

TEST(RingBufferSinkTest, KeepsMostRecentInOrder) {
  RingBufferSink ring(3);
  for (std::uint64_t i = 1; i <= 5; ++i) ring.record(dropRecord(i, 0));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.totalRecorded(), 5u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].uid, 3u);
  EXPECT_EQ(snap[1].uid, 4u);
  EXPECT_EQ(snap[2].uid, 5u);
}

TEST(ToJsonTest, PacketScopedRecord) {
  const std::string j = toJson(dropRecord(42, 7));
  EXPECT_NE(j.find("\"ev\":\"pkt_drop\""), std::string::npos);
  EXPECT_NE(j.find("\"node\":7"), std::string::npos);
  EXPECT_NE(j.find("\"uid\":42"), std::string::npos);
  EXPECT_NE(j.find("\"reason\":\"ifq_full\""), std::string::npos);
  EXPECT_NE(j.find("\"flow\":3"), std::string::npos);
  // Parses back with the reader the trace tools use.
  const auto parsed = util::parseJson(j);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stringAt("ev"), "pkt_drop");
  EXPECT_EQ(parsed->stringAt("reason"), "ifq_full");
  EXPECT_EQ(parsed->numberAt("uid"), 42.0);
  EXPECT_DOUBLE_EQ(parsed->numberAt("t"), 1.5);
}

TEST(ToJsonTest, LinkScopedRecordOmitsPacketFields) {
  TraceRecord r;
  r.at = sim::Time::seconds(1);
  r.event = TraceEvent::kLinkBreak;
  r.node = 3;
  r.src = 3;
  r.dst = 9;
  const std::string j = toJson(r);
  EXPECT_EQ(j.find("uid"), std::string::npos);
  EXPECT_EQ(j.find("reason"), std::string::npos);
  EXPECT_NE(j.find("\"src\":3"), std::string::npos);
  EXPECT_NE(j.find("\"dst\":9"), std::string::npos);
}

TEST(JsonlFileSinkTest, WritesParseableLines) {
  const std::string path =
      ::testing::TempDir() + "/trace_sink_test.jsonl";
  {
    JsonlFileSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.record(dropRecord(1, 0));
    sink.record(dropRecord(2, 1));
    sink.flush();
    EXPECT_EQ(sink.recordsWritten(), 2u);
  }
  const auto read = readTraceFile(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->errors.empty());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0].uid, 1u);
  EXPECT_EQ(read->records[1].uid, 2u);
  std::remove(path.c_str());
}

TEST(JsonlFileSinkTest, UnwritablePathIsGracefullyDisabled) {
  // A parent component that is a regular file defeats both the automatic
  // parent-directory creation and the open itself, on any platform and
  // under any privilege level.
  const std::string blocker = ::testing::TempDir() + "/jsonl_blocker";
  { std::ofstream(blocker) << "x"; }
  JsonlFileSink sink(blocker + "/trace.jsonl");
  EXPECT_FALSE(sink.ok());
  sink.record(dropRecord(1, 0));  // must not crash
  sink.flush();
  EXPECT_EQ(sink.recordsWritten(), 0u);
}

}  // namespace
}  // namespace manet::telemetry
