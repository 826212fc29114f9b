#include "src/core/send_buffer.h"

#include <gtest/gtest.h>

#include "src/telemetry/trace.h"
#include "src/traffic/cbr.h"
#include "tests/testing/dsr_fixture.h"

namespace manet::core {
namespace {

using sim::Time;

net::PacketPtr mkPkt() { return net::Packet::make(); }

TEST(SendBufferTest, PushAndTake) {
  SendBuffer b(4, Time::seconds(30));
  b.push(mkPkt(), 7, Time::zero());
  b.push(mkPkt(), 8, Time::zero());
  b.push(mkPkt(), 7, Time::zero());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_TRUE(b.hasPacketsFor(7));
  auto got = b.takeForDest(7);
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_FALSE(b.hasPacketsFor(7));
  EXPECT_TRUE(b.hasPacketsFor(8));
}

TEST(SendBufferTest, OverflowEvictsOldest) {
  SendBuffer b(2, Time::seconds(30));
  auto p1 = mkPkt();
  b.push(p1, 1, Time::zero());
  b.push(mkPkt(), 2, Time::zero());
  const auto evicted = b.push(mkPkt(), 3, Time::zero());
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].packet->uid, p1->uid);
  EXPECT_EQ(b.size(), 2u);
}

TEST(SendBufferTest, ExpireDropsOnlyOldEntries) {
  SendBuffer b(8, Time::seconds(30));
  b.push(mkPkt(), 1, Time::seconds(0));
  b.push(mkPkt(), 2, Time::seconds(20));
  auto dropped = b.expire(Time::seconds(31));
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].dest, 1u);
  EXPECT_EQ(b.size(), 1u);
  // Exactly 30 s of waiting is allowed; strictly more is not.
  EXPECT_EQ(b.expire(Time::seconds(50)).size(), 0u);
  EXPECT_EQ(b.expire(Time::millis(50001)).size(), 1u);
}

TEST(SendBufferTest, DestinationsAreDistinct) {
  SendBuffer b(8, Time::seconds(30));
  b.push(mkPkt(), 5, Time::zero());
  b.push(mkPkt(), 5, Time::zero());
  b.push(mkPkt(), 6, Time::zero());
  const auto d = b.destinations();
  EXPECT_EQ(d.size(), 2u);
}

TEST(SendBufferTest, TakePreservesFifoOrder) {
  SendBuffer b(8, Time::seconds(30));
  auto p1 = mkPkt();
  auto p2 = mkPkt();
  b.push(p1, 5, Time::zero());
  b.push(p2, 5, Time::seconds(1));
  auto got = b.takeForDest(5);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].packet->uid, p1->uid);
  EXPECT_EQ(got[1].packet->uid, p2->uid);
}

TEST(SendBufferTest, ExactCapacityBoundary) {
  SendBuffer b(3, Time::seconds(30));
  b.push(mkPkt(), 1, Time::zero());
  b.push(mkPkt(), 2, Time::zero());
  // Filling to exactly capacity evicts nothing...
  EXPECT_EQ(b.push(mkPkt(), 3, Time::zero()).size(), 0u);
  EXPECT_EQ(b.size(), 3u);
  // ...and each push past it evicts exactly one (the oldest).
  EXPECT_EQ(b.push(mkPkt(), 4, Time::zero()).size(), 1u);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_FALSE(b.hasPacketsFor(1));
  EXPECT_TRUE(b.hasPacketsFor(4));
}

TEST(SendBufferTest, DropRecordsMatchMetricCounters) {
  // Drive the agent-level drop paths end-to-end: an unreachable destination
  // with a tiny buffer forces both overflow and timeout drops, and every
  // counted drop must have a matching trace record.
  core::DsrConfig dsrCfg;
  dsrCfg.sendBufferCapacity = 4;
  manet::testing::DsrFixture fx(dsrCfg);
  fx.addStatic({0.0, 0.0});
  fx.addStatic({5000.0, 0.0});  // far out of range: no route will be found
  telemetry::RingBufferSink ring(1 << 16);
  fx.network->tracer().addSink(&ring);

  traffic::CbrSource::Params p;
  p.dst = 1;
  p.packetsPerSecond = 2.0;
  p.start = Time::millis(1);
  p.stop = Time::seconds(20);
  traffic::CbrSource src(fx.dsr(0), fx.network->scheduler(), p);
  fx.run(Time::seconds(60));  // past the 30 s buffer timeout

  const auto& m = fx.metrics();
  EXPECT_GT(m.dropSendBufferOverflow, 0u);
  EXPECT_GT(m.dropSendBufferTimeout, 0u);
  EXPECT_EQ(m.dataDelivered, 0u);

  std::uint64_t overflowRecs = 0, timeoutRecs = 0;
  for (const auto& r : ring.snapshot()) {
    if (r.event != telemetry::TraceEvent::kPktDrop) continue;
    if (r.reason == telemetry::DropReason::kSendBufferOverflow) {
      ++overflowRecs;
    } else if (r.reason == telemetry::DropReason::kSendBufferTimeout) {
      ++timeoutRecs;
    }
  }
  EXPECT_EQ(overflowRecs, m.dropSendBufferOverflow);
  EXPECT_EQ(timeoutRecs, m.dropSendBufferTimeout);
}

TEST(SendBufferTest, EmptyBufferBehaves) {
  SendBuffer b(8, Time::seconds(30));
  EXPECT_EQ(b.takeForDest(1).size(), 0u);
  EXPECT_EQ(b.expire(Time::seconds(100)).size(), 0u);
  EXPECT_TRUE(b.destinations().empty());
  EXPECT_FALSE(b.hasPacketsFor(1));
}

}  // namespace
}  // namespace manet::core
