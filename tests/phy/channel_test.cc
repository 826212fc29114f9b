#include "src/phy/channel.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "src/mobility/mobility_model.h"
#include "src/phy/radio.h"
#include "src/sim/scheduler.h"

namespace manet::phy {
namespace {

using mobility::StaticMobility;
using sim::Scheduler;
using sim::Time;

mac::Frame makeFrame(net::NodeId src, net::NodeId dst) {
  mac::Frame f;
  f.type = mac::FrameType::kData;
  f.src = src;
  f.dst = dst;
  f.packet = net::Packet::make();
  return f;
}

struct Fixture {
  Scheduler sched;
  PhyConfig cfg;
  Channel channel{sched, cfg};
  std::vector<std::unique_ptr<StaticMobility>> mobs;
  std::vector<std::unique_ptr<Radio>> radios;

  Radio& addRadio(net::NodeId id, Vec2 pos) {
    mobs.push_back(std::make_unique<StaticMobility>(pos));
    radios.push_back(
        std::make_unique<Radio>(id, *mobs.back(), channel, sched));
    return *radios.back();
  }
};

TEST(ChannelTest, DeliversWithinRange) {
  Fixture fx;
  Radio& a = fx.addRadio(0, {0, 0});
  Radio& b = fx.addRadio(1, {200, 0});
  int got = 0;
  b.setReceiveHandler([&](const mac::Frame&) { ++got; });
  a.startTx(makeFrame(0, 1));
  fx.sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(b.framesDelivered(), 1u);
}

TEST(ChannelTest, NoDeliveryBeyondRange) {
  Fixture fx;
  Radio& a = fx.addRadio(0, {0, 0});
  Radio& b = fx.addRadio(1, {251, 0});
  int got = 0;
  b.setReceiveHandler([&](const mac::Frame&) { ++got; });
  a.startTx(makeFrame(0, 1));
  fx.sched.run();
  EXPECT_EQ(got, 0);
}

TEST(ChannelTest, DeliveryExactlyAtRangeBoundary) {
  Fixture fx;
  Radio& a = fx.addRadio(0, {0, 0});
  Radio& b = fx.addRadio(1, {250, 0});
  int got = 0;
  b.setReceiveHandler([&](const mac::Frame&) { ++got; });
  a.startTx(makeFrame(0, 1));
  fx.sched.run();
  EXPECT_EQ(got, 1);
}

TEST(ChannelTest, OverlappingTransmissionsCollideAtReceiver) {
  Fixture fx;
  // Hidden terminal: a and c are out of range of each other, both in range
  // of b.
  Radio& a = fx.addRadio(0, {0, 0});
  Radio& b = fx.addRadio(1, {240, 0});
  Radio& c = fx.addRadio(2, {480, 0});
  int got = 0;
  b.setReceiveHandler([&](const mac::Frame&) { ++got; });
  a.startTx(makeFrame(0, 1));
  fx.sched.scheduleAfter(Time::micros(50),
                         [&] { c.startTx(makeFrame(2, 1)); });
  fx.sched.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(b.framesCorrupted(), 2u);
}

TEST(ChannelTest, SequentialTransmissionsBothDeliver) {
  Fixture fx;
  Radio& a = fx.addRadio(0, {0, 0});
  Radio& b = fx.addRadio(1, {240, 0});
  int got = 0;
  b.setReceiveHandler([&](const mac::Frame&) { ++got; });
  a.startTx(makeFrame(0, 1));
  fx.sched.scheduleAfter(Time::millis(50),
                         [&] { a.startTx(makeFrame(0, 1)); });
  fx.sched.run();
  EXPECT_EQ(got, 2);
}

TEST(ChannelTest, HalfDuplexReceiverTransmittingLosesFrame) {
  Fixture fx;
  Radio& a = fx.addRadio(0, {0, 0});
  Radio& b = fx.addRadio(1, {100, 0});
  Radio& far = fx.addRadio(2, {100, 240});  // b's frame goes somewhere
  (void)far;
  int got = 0;
  b.setReceiveHandler([&](const mac::Frame&) { ++got; });
  // b starts transmitting first, a's frame arrives while b is busy.
  b.startTx(makeFrame(1, 2));
  fx.sched.scheduleAfter(Time::micros(10),
                         [&] { a.startTx(makeFrame(0, 1)); });
  fx.sched.run();
  EXPECT_EQ(got, 0);
}

TEST(ChannelTest, CarrierSenseSeesNeighborTransmission) {
  Fixture fx;
  Radio& a = fx.addRadio(0, {0, 0});
  Radio& b = fx.addRadio(1, {200, 0});
  EXPECT_FALSE(b.carrierBusy());
  a.startTx(makeFrame(0, 1));
  std::optional<bool> busyDuring;
  fx.sched.scheduleAfter(Time::micros(100),
                         [&] { busyDuring = b.carrierBusy(); });
  fx.sched.run();
  ASSERT_TRUE(busyDuring.has_value());
  EXPECT_TRUE(*busyDuring);
  EXPECT_FALSE(b.carrierBusy());  // after the run, medium idle
}

TEST(ChannelTest, CarrierSenseIgnoresFarTransmitters) {
  Fixture fx;
  Radio& a = fx.addRadio(0, {0, 0});
  Radio& b = fx.addRadio(1, {600, 0});
  a.startTx(makeFrame(0, 99));
  std::optional<bool> busyDuring;
  fx.sched.scheduleAfter(Time::micros(100),
                         [&] { busyDuring = b.carrierBusy(); });
  fx.sched.run();
  ASSERT_TRUE(busyDuring.has_value());
  EXPECT_FALSE(*busyDuring);
}

TEST(ChannelTest, BusyUntilMatchesTransmissionEnd) {
  Fixture fx;
  Radio& a = fx.addRadio(0, {0, 0});
  Radio& b = fx.addRadio(1, {100, 0});
  const mac::Frame f = makeFrame(0, 1);
  const Time end = a.startTx(f);
  EXPECT_EQ(b.busyUntil(), end);
  EXPECT_EQ(a.busyUntil(), end);  // own transmission counts
}

TEST(ChannelTest, TxDurationMath) {
  Fixture fx;
  // 1000 bytes at 2 Mb/s = 4 ms, plus 192 us PHY overhead.
  EXPECT_EQ(fx.channel.txDuration(1000),
            Time::millis(4) + Time::micros(192));
}

TEST(ChannelTest, TransmitterDoesNotHearItself) {
  Fixture fx;
  Radio& a = fx.addRadio(0, {0, 0});
  int got = 0;
  a.setReceiveHandler([&](const mac::Frame&) { ++got; });
  a.startTx(makeFrame(0, net::kBroadcast));
  fx.sched.run();
  EXPECT_EQ(got, 0);
}

// A transmission heard by k radios is one rxStart group and one rxEnd
// group: the k starts run back to back, then the k ends, in attach order.
// One receiver goes down in between, so its reception is lost, but its
// rxEnd still runs and the last rxEnd frees the in-flight record for the
// next transmission.
TEST(ChannelTest, ReceptionsRunAsOneStartAndOneEndGroupPerTransmission) {
  Fixture fx;
  Radio& a = fx.addRadio(0, {0, 0});
  constexpr int kReceivers = 4;
  std::vector<Radio*> rx;
  for (int i = 1; i <= kReceivers; ++i) {
    rx.push_back(&fx.addRadio(static_cast<net::NodeId>(i), {50.0 * i, 0}));
  }
  // (receiver, executedCount()) at each delivery.
  std::vector<std::pair<net::NodeId, std::uint64_t>> delivered;
  for (Radio* r : rx) {
    r->setReceiveHandler([&fx, &delivered, r](const mac::Frame&) {
      delivered.emplace_back(r->id(), fx.sched.executedCount());
    });
  }
  const Time end = a.startTx(makeFrame(0, net::kBroadcast));
  const Time start = fx.cfg.propagationDelay;
  // Scheduled after the transmission, so it runs after every rxStart at
  // that instant and before any rxEnd.
  std::uint64_t afterStarts = 0;
  std::size_t pendingAfterStarts = 0;
  fx.sched.scheduleAt(start, [&] {
    afterStarts = fx.sched.executedCount();
    pendingAfterStarts = fx.sched.pendingCount();
  });
  fx.sched.scheduleAt(start + Time::micros(50), [&] { rx[1]->setUp(false); });
  EXPECT_EQ(fx.sched.pendingCount(), 2u * kReceivers + 2u);
  fx.sched.run();

  EXPECT_EQ(afterStarts, kReceivers + 1u);
  EXPECT_EQ(pendingAfterStarts, kReceivers + 1u);  // the ends and the crash
  // Events 1-4 are the starts, 5 the probe, 6 the crash and 7-10 the ends;
  // radio 2's end (event 8) finds its reception gone.
  EXPECT_EQ(delivered,
            (std::vector<std::pair<net::NodeId, std::uint64_t>>{
                {1, 7}, {3, 9}, {4, 10}}));
  EXPECT_EQ(fx.sched.now(), end + fx.cfg.propagationDelay);
  EXPECT_EQ(fx.channel.inFlightRecords(), 1u);

  a.startTx(makeFrame(0, net::kBroadcast));
  fx.sched.run();
  EXPECT_EQ(delivered.size(), 6u);
  EXPECT_EQ(fx.channel.inFlightRecords(), 1u);  // reused, not grown
  EXPECT_EQ(fx.sched.slotCount(), 4u);  // two groups and two singles
}

}  // namespace
}  // namespace manet::phy
