// Pending-set contract: the event queue must pop in strictly ascending
// (at, id) order — the FIFO-among-ties rule every determinism guarantee in
// the simulator rests on. The reference is an ordered std::set of
// (at, id) pairs, which shares no code with the heap it checks. "Both
// kinds" in the test names means the queue and that reference. The
// tie-heavy cases below interleave, drain and refill equal timestamps.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/scheduler.h"

namespace manet::sim {
namespace {

using Popped = std::pair<Time, EventId>;
using Oracle = std::set<Popped>;

/// A deterministic, clumpy timestamp sequence: bursts of equal and
/// near-equal times (MAC-like) plus occasional far-future timers.
std::vector<Time> workload(int n) {
  std::vector<Time> out;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    switch (x % 8) {
      case 0:
        out.push_back(Time::seconds(1 + static_cast<std::int64_t>(x % 20)));
        break;  // far-future protocol timer
      case 1:
      case 2:
        out.push_back(Time::micros(static_cast<std::int64_t>(x % 50)));
        break;  // tie-heavy burst near t=0
      default:
        out.push_back(Time::micros(static_cast<std::int64_t>(x % 200000)));
        break;  // dense near future
    }
  }
  return out;
}

/// Pop the oracle's minimum.
Popped popMin(Oracle& oracle) {
  const Popped p = *oracle.begin();
  oracle.erase(oracle.begin());
  return p;
}

TEST(EventQueueTest, BothKindsPopIdenticalStrictlyOrderedSequences) {
  const std::vector<Time> times = workload(5000);
  EventQueue q;
  Oracle oracle;
  EventId id = 1;
  for (Time t : times) {
    q.push(EventKey{t, id, static_cast<std::uint32_t>(id)});
    oracle.emplace(t, id);
    ++id;
  }
  ASSERT_EQ(q.size(), times.size());
  ASSERT_EQ(oracle.size(), times.size());  // (at, id) pairs are distinct
  std::size_t popped = 0;
  while (!q.empty()) {
    const Popped want = popMin(oracle);
    const EventKey top = q.top();
    ASSERT_EQ(Popped(top.at, top.id), want) << "peek " << popped;
    const EventKey k = q.pop();
    ASSERT_EQ(Popped(k.at, k.id), want) << "pop " << popped;
    EXPECT_EQ(k.slot, static_cast<std::uint32_t>(k.id));  // rides along
    ++popped;
  }
  EXPECT_EQ(popped, times.size());
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(oracle.empty());
}

TEST(EventQueueTest, InterleavedPushPopStaysOrderedOnBothKinds) {
  // Pops interleaved with pushes at ever-later times, as a simulation does.
  // Besides the workload, one timer sits at Time::max() and some ~2^40 ns
  // (~18 min) out, far beyond every other pending time.
  const std::vector<Time> times = workload(2000);
  const Time far = Time::nanos(std::int64_t{1} << 40);
  EventQueue q;
  Oracle oracle;
  EventId id = 1;
  Time lastPopped = Time::zero();
  std::size_t pushed = 0;
  std::size_t popped = 0;
  while (popped < times.size()) {
    while (pushed < times.size() && pushed < popped * 2 + 8) {
      // Keep the sequence schedulable: times must be >= "now".
      Time at = lastPopped + times[pushed];
      if (pushed == 100) {
        at = Time::max();
      } else if (pushed % 500 == 250) {
        at = lastPopped + far;
      }
      q.push(EventKey{at, id, 0});
      oracle.emplace(at, id);
      ++id;
      ++pushed;
    }
    ASSERT_EQ(q.size(), oracle.size());
    const Popped want = popMin(oracle);
    // Alternate peek-then-pop (the Scheduler's pattern) with a bare pop.
    if (popped % 2 == 0) {
      ASSERT_EQ(Popped(q.top().at, q.top().id), want) << "pop " << popped;
    }
    const EventKey got = q.pop();
    ASSERT_EQ(Popped(got.at, got.id), want) << "pop " << popped;
    ASSERT_GE(got.at, lastPopped) << "went backwards at pop " << popped;
    lastPopped = got.at;
    ++popped;
  }
  EXPECT_EQ(lastPopped, Time::max());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(oracle.empty());
}

/// Drives an EventQueue and the set oracle through the same operations.
/// push() issues the next ascending id (as the Scheduler does); pop()
/// checks the queue's top and popped key, its slot, and both sizes against
/// the oracle.
class Checked {
 public:
  EventId push(Time at) {
    const EventId id = next_++;
    q_.push(EventKey{at, id, slotOf(id)});
    oracle_.emplace(at, id);
    EXPECT_EQ(q_.size(), oracle_.size());
    return id;
  }
  Popped pop() {
    const Popped want = popMin(oracle_);
    EXPECT_EQ(Popped(q_.top().at, q_.top().id), want);
    const EventKey k = q_.pop();
    EXPECT_EQ(Popped(k.at, k.id), want);
    EXPECT_EQ(k.slot, slotOf(k.id));
    EXPECT_EQ(q_.size(), oracle_.size());
    EXPECT_EQ(q_.empty(), oracle_.empty());
    return want;
  }
  void drain() {
    while (!oracle_.empty()) pop();
    EXPECT_TRUE(q_.empty());
  }
  std::size_t size() const { return q_.size(); }

 private:
  static std::uint32_t slotOf(EventId id) {
    return static_cast<std::uint32_t>(id * 7 + 3);
  }
  EventQueue q_;
  Oracle oracle_;
  EventId next_ = 1;
};

TEST(EventQueueTest, TransmitShapedAlternatingRunsPopInOrder) {
  // Per-receiver phy fan-out: one push at now+1us (rxStart) then one at
  // end+1us (rxEnd) per receiver, so pushes alternate between two
  // timestamps. Airtimes come from a small set, so ends of different
  // transmissions coincide and one timestamp collects several bursts.
  Checked c;
  const std::array<std::int64_t, 3> airtimeUs{100, 200, 300};
  Time now = Time::zero();
  for (int tx = 0; tx < 40; ++tx) {
    const Time start = now + Time::micros(1);
    const Time end = start + Time::micros(airtimeUs[tx % 3]);
    for (int r = 0; r < 16; ++r) {
      c.push(start);
      c.push(end);
    }
    for (int i = 0; i < 20; ++i) now = c.pop().first;
  }
  c.drain();
}

TEST(EventQueueTest, ThreeWayInterleaveOpensSecondRunsForOneTimestamp) {
  // Three timestamps pushed round robin, so the ties at each timestamp
  // are interleaved with the others'. Their FIFO order must still hold.
  Checked c;
  const std::array<Time, 3> at{Time::micros(30), Time::micros(10),
                               Time::micros(20)};
  for (int i = 0; i < 30; ++i) c.push(at[static_cast<std::size_t>(i % 3)]);
  EXPECT_EQ(c.size(), 30u);
  c.drain();
}

TEST(EventQueueTest, PushesAtTheDrainingRunsTimestampQueueBehindIt) {
  Checked c;
  const Time t = Time::micros(5);
  for (int i = 0; i < 4; ++i) c.push(t);
  c.push(Time::micros(9));
  c.pop();
  // Ties pushed at the timestamp being drained order behind it.
  c.push(t);
  c.push(t);
  c.pop();
  // More ties at t, after keys at two later timestamps.
  c.push(Time::micros(7));
  c.push(Time::micros(8));
  c.push(t);
  c.push(t);
  c.drain();
}

TEST(EventQueueTest, RetiredRunThenNewPushAtSameTimestamp) {
  Checked c;
  const Time t = Time::micros(5);
  for (int i = 0; i < 3; ++i) c.push(t);
  c.push(Time::micros(6));
  for (int i = 0; i < 3; ++i) c.pop();  // t drains
  c.push(t);                            // a fresh key at t
  c.push(Time::micros(6));              // ties the pending key at 6us
  c.push(t);
  c.drain();
  // Refill after a full drain.
  for (int i = 0; i < 5; ++i) {
    c.push(t);
    c.push(Time::micros(6));
  }
  c.drain();
}

TEST(EventQueueTest, RandomTieHeavyOperationsMatchTheOracle) {
  // Few distinct timestamps, random push/pop mix: ties pushed while their
  // timestamp is at the top, below it and already drained.
  Checked c;
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  Time now = Time::zero();
  for (int step = 0; step < 20000; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (x % 5 < 3 || c.size() == 0) {
      c.push(now + Time::micros(static_cast<std::int64_t>((x >> 8) % 4)));
    } else {
      now = c.pop().first;
    }
  }
  c.drain();
}

TEST(EventQueueTest, SchedulerFanoutWithMidRunCancelStaysExact) {
  // One transmission fans out to 8 receivers: 8 starts at 1us and 8 ends
  // at 50us, pushed alternately. A start in the middle of the burst is
  // cancelled, and one start handler schedules a zero-delay event, which
  // runs after the burst's last start.
  Scheduler sched;
  std::vector<int> log;
  std::vector<EventId> starts;
  sched.scheduleAt(Time::zero(), [&] {
    for (int r = 0; r < 8; ++r) {
      starts.push_back(sched.scheduleAt(Time::micros(1), [&, r] {
        log.push_back(r);
        if (r == 2) sched.scheduleAfter(Time::zero(), [&] { log.push_back(8); });
      }));
      sched.scheduleAt(Time::micros(50), [&, r] { log.push_back(100 + r); });
    }
  });
  sched.runUntil(Time::zero());
  EXPECT_EQ(sched.pendingCount(), 16u);
  EXPECT_EQ(sched.queueHighWater(), 16u);
  sched.cancel(starts[4]);
  EXPECT_EQ(sched.pendingCount(), 15u);
  EXPECT_EQ(sched.nextEventAt(), Time::micros(1));
  sched.runUntil(Time::micros(1));
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 5, 6, 7, 8}));
  EXPECT_EQ(sched.pendingCount(), 8u);
  EXPECT_EQ(sched.queueHighWater(), 16u);
  sched.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 5, 6, 7, 8, 100, 101, 102, 103,
                                   104, 105, 106, 107}));
  EXPECT_EQ(sched.executedCount(), 1u + 7u + 1u + 8u);
  EXPECT_EQ(sched.pendingCount(), 0u);
}

TEST(EventQueueTest, SchedulerBehavesIdenticallyOnBothQueues) {
  // A scheduling program — ties, cascading reschedules, a cancel — runs
  // through the Scheduler. Every event it issues is also logged into the
  // set oracle under its scheduling order (an EventId handle names a slot
  // and a stamp, not that order); draining the oracle (skipping the
  // cancelled event) must give the Scheduler's dispatch order.
  struct Issued {
    EventId id;
    std::uint64_t seq;
  };
  Scheduler sched;
  Oracle oracle;
  std::uint64_t issued = 0;
  std::map<std::uint64_t, std::string> names;
  std::vector<std::string> log;
  std::vector<std::uint64_t> cancelled;
  std::function<Issued(Time, std::string, std::function<void()>)> add =
      [&](Time at, std::string name, std::function<void()> body) {
        const EventId id = sched.scheduleAt(at, [&log, name, body] {
          log.push_back(name);
          if (body) body();
        });
        const std::uint64_t seq = ++issued;
        oracle.emplace(at, seq);
        names[seq] = std::move(name);
        return Issued{id, seq};
      };
  // Ties at t=10us, scheduled out of order.
  add(Time::micros(10), "tie-a", {});
  add(Time::micros(5), "early", [&] {
    // Cascade: schedule a tie for t=10us from inside a handler; FIFO
    // order puts it after the two pre-scheduled ties.
    add(Time::micros(10), "tie-c", {});
    // And a far-future timer that later gets cancelled.
    const Issued doomed = add(Time::seconds(5), "never", {});
    add(Time::seconds(2), "cancel", [&, doomed] {
      sched.cancel(doomed.id);
      cancelled.push_back(doomed.seq);
    });
  });
  add(Time::micros(10), "tie-b", {});
  EXPECT_STREQ(sched.queueName(), "heap");
  EXPECT_EQ(sched.nextEventAt(), Time::micros(5));
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"early", "tie-a", "tie-b", "tie-c",
                                           "cancel"}));
  EXPECT_EQ(sched.executedCount(), 5u);

  std::vector<std::string> want;
  for (const auto& [at, seq] : oracle) {
    if (std::find(cancelled.begin(), cancelled.end(), seq) ==
        cancelled.end()) {
      want.push_back(names.at(seq));
    }
  }
  EXPECT_EQ(log, want);
}

TEST(EventQueueTest, SchedulerIntrospectionIsQueueAgnostic) {
  Scheduler sched;
  EXPECT_EQ(sched.nextEventAt(), Time::max());
  const EventId a = sched.scheduleAt(Time::millis(1), [] {});
  sched.scheduleAt(Time::millis(2), [] {});
  sched.scheduleAt(Time::seconds(9), [] {});  // far-future timer
  EXPECT_EQ(sched.pendingCount(), 3u);
  EXPECT_EQ(sched.queueHighWater(), 3u);
  sched.cancel(a);
  EXPECT_EQ(sched.pendingCount(), 2u);
  EXPECT_EQ(sched.nextEventAt(), Time::millis(1));  // lazily cancelled
  sched.run();
  EXPECT_EQ(sched.executedCount(), 2u);
  EXPECT_EQ(sched.pendingCount(), 0u);
}

}  // namespace
}  // namespace manet::sim
