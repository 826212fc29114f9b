#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace manet::sim {
namespace {

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.scheduleAt(Time::seconds(3), [&] { order.push_back(3); });
  s.scheduleAt(Time::seconds(1), [&] { order.push_back(1); });
  s.scheduleAt(Time::seconds(2), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, TiesRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.scheduleAt(Time::seconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SchedulerTest, NowAdvancesWithEvents) {
  Scheduler s;
  Time seen;
  s.scheduleAt(Time::millis(250), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, Time::millis(250));
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryInclusive) {
  Scheduler s;
  int ran = 0;
  s.scheduleAt(Time::seconds(1), [&] { ++ran; });
  s.scheduleAt(Time::seconds(2), [&] { ++ran; });
  s.scheduleAt(Time::seconds(3), [&] { ++ran; });
  s.runUntil(Time::seconds(2));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.now(), Time::seconds(2));
  s.runUntil(Time::seconds(5));
  EXPECT_EQ(ran, 3);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventId id = s.scheduleAt(Time::seconds(1), [&] { ran = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelInvalidIdIsSafe) {
  Scheduler s;
  s.cancel(kInvalidEvent);
  s.cancel(99999);
  s.run();
}

TEST(SchedulerTest, EventsCanScheduleEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) s.scheduleAfter(Time::seconds(1), chain);
  };
  s.scheduleAfter(Time::seconds(1), chain);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), Time::seconds(5));
}

TEST(SchedulerTest, EventsCanCancelLaterEvents) {
  Scheduler s;
  bool ran = false;
  EventId victim = s.scheduleAt(Time::seconds(2), [&] { ran = true; });
  s.scheduleAt(Time::seconds(1), [&] { s.cancel(victim); });
  s.run();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, ExecutedCountCountsOnlyRunEvents) {
  Scheduler s;
  s.scheduleAt(Time::seconds(1), [] {});
  EventId id = s.scheduleAt(Time::seconds(2), [] {});
  s.cancel(id);
  s.run();
  EXPECT_EQ(s.executedCount(), 1u);
}

TEST(SchedulerTest, PendingCountTracksScheduleAndRun) {
  Scheduler s;
  EXPECT_EQ(s.pendingCount(), 0u);
  s.scheduleAt(Time::seconds(1), [] {});
  s.scheduleAt(Time::seconds(2), [] {});
  EXPECT_EQ(s.pendingCount(), 2u);
  s.runUntil(Time::seconds(1));
  EXPECT_EQ(s.pendingCount(), 1u);
  s.run();
  EXPECT_EQ(s.pendingCount(), 0u);
}

TEST(SchedulerTest, PendingCountExcludesCancelledEvents) {
  Scheduler s;
  EventId a = s.scheduleAt(Time::seconds(1), [] {});
  s.scheduleAt(Time::seconds(2), [] {});
  s.cancel(a);
  EXPECT_EQ(s.pendingCount(), 1u);
  s.run();
  EXPECT_EQ(s.pendingCount(), 0u);
}

// Regression: cancelling an id that already fired used to pollute the
// cancelled set, making pendingCount() (queue size minus cancellations)
// wrap around to a huge value.
TEST(SchedulerTest, CancelAfterFireDoesNotUnderflowPendingCount) {
  Scheduler s;
  EventId id = s.scheduleAt(Time::seconds(1), [] {});
  s.run();
  EXPECT_EQ(s.pendingCount(), 0u);
  s.cancel(id);  // no-op: the event already executed
  EXPECT_EQ(s.pendingCount(), 0u);
  s.scheduleAt(Time::seconds(2), [] {});
  EXPECT_EQ(s.pendingCount(), 1u);
}

TEST(SchedulerTest, DoubleCancelCountsOnce) {
  Scheduler s;
  EventId id = s.scheduleAt(Time::seconds(1), [] {});
  s.scheduleAt(Time::seconds(2), [] {});
  s.cancel(id);
  s.cancel(id);  // second cancel must not double-count
  EXPECT_EQ(s.pendingCount(), 1u);
  s.runUntil(Time::seconds(1));  // pops the cancelled key
  s.cancel(id);                  // and a third, after the pop
  EXPECT_EQ(s.pendingCount(), 1u);
  s.run();
  EXPECT_EQ(s.pendingCount(), 0u);
  EXPECT_EQ(s.executedCount(), 1u);
}

// The running closure still holds its slot, so what it schedules lands in
// another slot, and its own handle no longer names a pending event.
TEST(SchedulerTest, HandlerCancellingItselfIsNoOp) {
  Scheduler s;
  EventId self = kInvalidEvent;
  bool followerRan = false;
  self = s.scheduleAt(Time::seconds(1), [&] {
    s.scheduleAfter(Time::seconds(1), [&] { followerRan = true; });
    s.cancel(self);
    EXPECT_EQ(s.pendingCount(), 1u);
  });
  s.run();
  EXPECT_TRUE(followerRan);
  EXPECT_EQ(s.pendingCount(), 0u);
  EXPECT_EQ(s.executedCount(), 2u);
}

// A handle outlives its event; once the slot holds another event, the old
// handle must not reach it, whether the old event fired or was cancelled.
TEST(SchedulerTest, StaleHandleDoesNotCancelTheEventReusingItsSlot) {
  Scheduler s;
  std::vector<std::string> ran;
  const EventId fired =
      s.scheduleAt(Time::seconds(1), [&] { ran.push_back("fired"); });
  s.runUntil(Time::seconds(1));
  const EventId second =
      s.scheduleAt(Time::seconds(2), [&] { ran.push_back("second"); });
  EXPECT_EQ(s.slotCount(), 1u);  // the fired event's slot, reused
  EXPECT_NE(second, fired);
  s.cancel(fired);
  EXPECT_EQ(s.pendingCount(), 1u);

  s.cancel(second);
  s.runUntil(Time::seconds(2));  // pops the cancelled key, frees the slot
  s.scheduleAt(Time::seconds(3), [&] { ran.push_back("third"); });
  EXPECT_EQ(s.slotCount(), 1u);
  s.cancel(second);
  s.cancel(fired);
  EXPECT_EQ(s.pendingCount(), 1u);
  s.run();
  EXPECT_EQ(ran, (std::vector<std::string>{"fired", "third"}));
  EXPECT_EQ(s.pendingCount(), 0u);
}

// Scheduler state is bounded by what is pending, not by how many ids were
// issued since the oldest pending event: a far-future timer does not make
// 200k short chained events leave anything behind.
TEST(SchedulerTest, StateStaysBoundedBehindAFarFutureTimer) {
  Scheduler s;
  bool timerRan = false;
  s.scheduleAt(Time::seconds(1000000), [&] { timerRan = true; });
  int left = 200000;
  std::function<void()> step = [&] {
    if (--left > 0) s.scheduleAfter(Time::micros(1), step);
  };
  s.scheduleAfter(Time::micros(1), step);
  s.runUntil(Time::seconds(1));
  EXPECT_EQ(left, 0);
  EXPECT_EQ(s.executedCount(), 200000u);
  EXPECT_EQ(s.pendingCount(), 1u);
  EXPECT_EQ(s.queueHighWater(), 2u);
  EXPECT_LE(s.slotCount(), s.queueHighWater() + 1);
  s.run();
  EXPECT_TRUE(timerRan);
  EXPECT_LE(s.slotCount(), s.queueHighWater() + 1);
}

TEST(SchedulerTest, PendingCountStaysExactUnderChurn) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 10; ++i) {
      ids.push_back(
          s.scheduleAfter(Time::millis(1 + (round + i) % 7), [] {}));
    }
    // Cancel a mix of live and long-dead ids.
    s.cancel(ids[ids.size() - 1]);
    s.cancel(ids[ids.size() / 2]);
    s.cancel(ids[0]);
    s.runUntil(s.now() + Time::millis(3));
  }
  s.run();
  EXPECT_EQ(s.pendingCount(), 0u);
}

// A cancelled key frees its closure slot when it is popped; the next event
// scheduled reuses that slot, and the cancelled closure never runs.
TEST(SchedulerTest, CancelledSlotIsReusedAndItsClosureNeverRuns) {
  Scheduler s;
  std::vector<std::string> ran;
  const EventId doomed =
      s.scheduleAt(Time::seconds(1), [&] { ran.push_back("doomed"); });
  s.scheduleAt(Time::seconds(2), [&] { ran.push_back("b"); });
  EXPECT_EQ(s.slotCount(), 2u);
  s.cancel(doomed);
  s.runUntil(Time::seconds(1));  // pops the cancelled key, frees its slot
  EXPECT_EQ(s.slotCount(), 2u);
  s.scheduleAt(Time::seconds(3), [&] { ran.push_back("c"); });
  EXPECT_EQ(s.slotCount(), 2u);  // reused, not grown
  s.run();
  EXPECT_EQ(ran, (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(s.slotCount(), 2u);
  EXPECT_EQ(s.slotCount(), s.queueHighWater());
}

// One handler schedules far more events than one chunk of slots holds, so
// new chunks are allocated while that handler's closure runs in its slot.
// The chunks must never move: the handler's own captures must survive, and
// every new event must run in (time, FIFO) order.
TEST(SchedulerTest, HandlerGrowingTheSlotVectorStillRunsEverythingInOrder) {
  Scheduler s;
  std::vector<int> order;
  // Stored inline in the running closure: were slots kept in one growing
  // vector, this string would move out from under it.
  const std::string tag(100, 'x');
  std::string seenTag;
  s.scheduleAt(Time::seconds(1), [&s, &order, &seenTag, tag] {
    for (int i = 0; i < 1000; ++i) {
      // Ten ties per timestamp, timestamps scheduled in reverse.
      const auto at = Time::millis(2000 + 10 * (99 - i / 10));
      s.scheduleAt(at, [&order, i] { order.push_back(i); });
    }
    seenTag = tag;  // read the captures after slots_ has grown
  });
  EXPECT_EQ(s.slotCount(), 1u);
  s.run();
  EXPECT_EQ(seenTag, tag);
  EXPECT_GE(s.slotCount(), 1000u);
  ASSERT_EQ(order.size(), 1000u);
  std::vector<int> want;
  for (int block = 99; block >= 0; --block) {
    for (int j = 0; j < 10; ++j) want.push_back(block * 10 + j);
  }
  EXPECT_EQ(order, want);
  EXPECT_EQ(s.executedCount(), 1001u);
}

// Closure lifetime: a cancelled closure is destroyed when its key is
// popped, a dispatched one right after it runs, and pending ones when the
// Scheduler is destroyed.
TEST(SchedulerTest, ClosuresAreReleasedWhenPoppedOrWithTheScheduler) {
  auto token = std::make_shared<int>(7);
  auto s = std::make_unique<Scheduler>();
  const EventId doomed = s->scheduleAt(Time::seconds(1), [token] {});
  s->scheduleAt(Time::seconds(2), [token] {});
  s->scheduleAt(Time::seconds(3), [token] {});
  EXPECT_EQ(token.use_count(), 4);
  s->cancel(doomed);
  EXPECT_EQ(token.use_count(), 4);  // lazily cancelled: still queued
  s->runUntil(Time::millis(1500));
  EXPECT_EQ(token.use_count(), 3);  // popped: the cancelled closure is gone
  s->runUntil(Time::seconds(2));
  EXPECT_EQ(token.use_count(), 2);  // dispatched and destroyed
  s.reset();
  EXPECT_EQ(token.use_count(), 1);  // the pending closure died with it
}

TEST(SchedulerTest, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  Time when;
  s.scheduleAt(Time::seconds(10), [&] {
    s.scheduleAfter(Time::seconds(5), [&] { when = s.now(); });
  });
  s.run();
  EXPECT_EQ(when, Time::seconds(15));
}

// --- event groups ---
//
// A group must be indistinguishable from its members scheduled one by one
// with scheduleAt: the same dispatch order and, at every dispatch, the
// same executedCount(), pendingCount() and queueHighWater().

/// What a handler sees when it runs: its name, now(), executedCount(),
/// pendingCount() and queueHighWater().
using Probe =
    std::tuple<std::string, Time, std::uint64_t, std::size_t, std::size_t>;

/// Runs one scheduling program either with scheduleGroup or, as the
/// reference, with one scheduleAt per group member, logging a Probe at
/// every dispatch.
class Twin {
 public:
  explicit Twin(bool grouped) : grouped_(grouped) {}

  void group(Time at, std::uint32_t n, const std::string& name,
             std::function<void(std::uint32_t)> body = {}) {
    if (grouped_) {
      s.scheduleGroup(at, n, [this, name, body](std::uint32_t i) {
        member(name, i, body);
      });
      return;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      s.scheduleAt(at, [this, name, body, i] { member(name, i, body); });
    }
  }
  EventId single(Time at, const std::string& name,
                 std::function<void()> body = {}) {
    return s.scheduleAt(at, [this, name, body] {
      record(name);
      if (body) body();
    });
  }

  Scheduler s;
  std::vector<Probe> log;

 private:
  void record(const std::string& name) {
    log.emplace_back(name, s.now(), s.executedCount(), s.pendingCount(),
                     s.queueHighWater());
  }
  void member(const std::string& name, std::uint32_t i,
              const std::function<void(std::uint32_t)>& body) {
    record(name + "#" + std::to_string(i));
    if (body) body(i);
  }
  bool grouped_;
};

void expectSame(Twin& grouped, Twin& reference) {
  EXPECT_EQ(grouped.log, reference.log);
  EXPECT_EQ(grouped.s.now(), reference.s.now());
  EXPECT_EQ(grouped.s.executedCount(), reference.s.executedCount());
  EXPECT_EQ(grouped.s.pendingCount(), reference.s.pendingCount());
  EXPECT_EQ(grouped.s.queueHighWater(), reference.s.queueHighWater());
  EXPECT_EQ(grouped.s.nextEventAt(), reference.s.nextEventAt());
}

std::vector<std::string> names(const std::vector<Probe>& log) {
  std::vector<std::string> out;
  for (const Probe& p : log) out.push_back(std::get<0>(p));
  return out;
}

// A zero-delay event scheduled by member 1 takes a later sequence number
// than every member, so it runs after the group's last member, as it would
// behind single events.
TEST(SchedulerGroupTest, ZeroDelayEventFromAMemberRunsAfterTheLastMember) {
  const auto program = [](Twin& t) {
    t.single(Time::micros(5), "before");
    t.group(Time::micros(5), 4, "g", [&t](std::uint32_t i) {
      if (i == 1) t.single(t.s.now(), "zero-delay");
    });
    t.single(Time::micros(5), "after");
    t.group(Time::micros(9), 3, "late");
  };
  Twin grouped(true);
  Twin reference(false);
  program(grouped);
  program(reference);
  EXPECT_EQ(grouped.s.slotCount(), 4u);  // one slot per group
  EXPECT_EQ(reference.s.slotCount(), 9u);
  expectSame(grouped, reference);
  grouped.s.run();
  reference.s.run();
  expectSame(grouped, reference);
  EXPECT_EQ(names(grouped.log),
            (std::vector<std::string>{"before", "g#0", "g#1", "g#2", "g#3",
                                      "after", "zero-delay", "late#0",
                                      "late#1", "late#2"}));
  EXPECT_EQ(grouped.s.executedCount(), 10u);
  EXPECT_EQ(grouped.s.pendingCount(), 0u);
}

TEST(SchedulerGroupTest, RunUntilStopsBeforeTheGroupsInstant) {
  const auto program = [](Twin& t) {
    t.single(Time::micros(3), "a");
    t.group(Time::micros(10), 5, "g");
    t.single(Time::micros(20), "b");
  };
  Twin grouped(true);
  Twin reference(false);
  program(grouped);
  program(reference);
  for (const Time until : {Time::micros(9), Time::micros(10),
                           Time::micros(19), Time::max()}) {
    grouped.s.runUntil(until);
    reference.s.runUntil(until);
    expectSame(grouped, reference);
    if (until == Time::micros(9)) {
      EXPECT_EQ(grouped.s.pendingCount(), 6u);
      EXPECT_EQ(grouped.s.nextEventAt(), Time::micros(10));
    }
  }
  EXPECT_EQ(grouped.s.executedCount(), 7u);
}

// Cancelled singles at the group's instant, pushed before and after it,
// are skipped without disturbing the members' counts; one is cancelled up
// front, the other from a handler.
TEST(SchedulerGroupTest, CancelledSinglesAroundAGroupLeaveItsCountsExact) {
  const auto program = [](Twin& t) {
    const EventId before = t.single(Time::micros(5), "cancelled-before");
    t.group(Time::micros(5), 3, "g");
    const EventId after = t.single(Time::micros(5), "cancelled-after");
    t.single(Time::micros(5), "kept");
    t.s.cancel(before);
    t.single(Time::micros(1), "canceller", [&t, after] { t.s.cancel(after); });
  };
  Twin grouped(true);
  Twin reference(false);
  program(grouped);
  program(reference);
  expectSame(grouped, reference);
  EXPECT_EQ(grouped.s.pendingCount(), 6u);
  EXPECT_EQ(grouped.s.queueHighWater(), 7u);
  for (const Time until : {Time::micros(1), Time::max()}) {
    grouped.s.runUntil(until);
    reference.s.runUntil(until);
    expectSame(grouped, reference);
  }
  EXPECT_EQ(names(grouped.log),
            (std::vector<std::string>{"canceller", "g#0", "g#1", "g#2",
                                      "kept"}));
  EXPECT_EQ(grouped.s.pendingCount(), 0u);
}

}  // namespace
}  // namespace manet::sim
