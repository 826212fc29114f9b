// Pending-set contract: the calendar queue must dispatch in strictly
// ascending (at, id) order — the FIFO-among-ties rule every determinism
// guarantee in the simulator rests on. A binary heap over (at, id) is the
// ordering oracle it is compared against.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/scheduler.h"
#include "tests/sim/heap_event_queue.h"

namespace manet::sim {
namespace {

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
        break;  // far-future timer (calendar overflow territory)
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

using Popped = std::pair<Time, EventId>;

EventEntry entry(Time at, EventId id) {
  return EventEntry{at, id, EventFn{}, prof::Category::kOther};
}

template <class Queue>
std::vector<Popped> drain(Queue& q) {
  std::vector<Popped> out;
  while (const EventEntry* top = q.peek()) {
    EXPECT_EQ(top->at, q.peek()->at);  // peek is stable
    EventEntry e = q.pop();
    out.emplace_back(e.at, e.id);
  }
  return out;
}

TEST(EventQueueTest, BothKindsPopIdenticalStrictlyOrderedSequences) {
  const std::vector<Time> times = workload(5000);
  HeapEventQueue heap;
  auto cal = std::make_unique<CalendarEventQueue>();
  EventId id = 1;
  for (Time t : times) {
    heap.push(entry(t, id));
    cal->push(entry(t, id));
    ++id;
  }
  EXPECT_EQ(heap.size(), times.size());
  EXPECT_EQ(cal->size(), times.size());
  const auto a = drain(heap);
  const auto b = drain(*cal);
  ASSERT_EQ(a.size(), times.size());
  ASSERT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i) {
    const bool ordered = a[i - 1].first < a[i].first ||
                         (a[i - 1].first == a[i].first &&
                          a[i - 1].second < a[i].second);
    ASSERT_TRUE(ordered) << "disorder at " << i;
  }
}

TEST(EventQueueTest, InterleavedPushPopStaysOrderedOnBothKinds) {
  // Pops interleaved with pushes at ever-later times, as a simulation does,
  // fed to the calendar queue and the heap oracle alike. Besides the
  // workload, one timer sits at Time::max() (the saturating window limit)
  // and some ~2^40 ns (~18 min) out, so the window jumps far ahead.
  const std::vector<Time> times = workload(2000);
  const Time far = Time::nanos(std::int64_t{1} << 40);
  HeapEventQueue heap;
  auto cal = std::make_unique<CalendarEventQueue>();
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
      heap.push(entry(at, id));
      cal->push(entry(at, id));
      ++id;
      ++pushed;
    }
    ASSERT_EQ(cal->size(), heap.size());
    // Alternate peek-then-pop (the Scheduler's pattern) with a bare pop.
    if (popped % 2 == 0) {
      ASSERT_EQ(cal->peek()->id, heap.peek()->id) << "pop " << popped;
    }
    const EventEntry want = heap.pop();
    const EventEntry got = cal->pop();
    ASSERT_EQ(Popped(got.at, got.id), Popped(want.at, want.id))
        << "pop " << popped;
    ASSERT_GE(got.at, lastPopped) << "went backwards at pop " << popped;
    lastPopped = got.at;
    ++popped;
  }
  EXPECT_EQ(lastPopped, Time::max());
  EXPECT_EQ(cal->peek(), nullptr);  // window limit saturates at Time::max()
  EXPECT_TRUE(cal->empty());
  EXPECT_TRUE(heap.empty());
}

TEST(EventQueueTest, CalendarRoutesFarTimersThroughOverflow) {
  auto q = std::make_unique<CalendarEventQueue>();
  q->push(entry(Time::seconds(30), 1));
  q->push(entry(Time::micros(5), 2));
  EXPECT_EQ(q->overflowSize(), 1u);  // the 30 s timer is beyond the wheel
  EXPECT_EQ(q->size(), 2u);
  EXPECT_EQ(q->pop().id, 2u);
  // Popping advances the window; the far timer is served (migrating into
  // the wheel or straight off the overflow heap) in correct order.
  EXPECT_EQ(q->pop().id, 1u);
  EXPECT_TRUE(q->empty());
}

TEST(EventQueueTest, SchedulerBehavesIdenticallyOnBothQueues) {
  // A scheduling program — ties, cascading reschedules, a cancel — runs
  // through the Scheduler. Every entry it issues is also logged into the
  // heap oracle; draining the oracle (skipping the cancelled id) must give
  // the Scheduler's dispatch order, with the same event ids.
  Scheduler sched;
  HeapEventQueue oracle;
  std::map<EventId, std::string> names;
  std::vector<std::string> log;
  std::vector<EventId> cancelled;
  std::function<EventId(Time, std::string, std::function<void()>)> add =
      [&](Time at, std::string name, std::function<void()> body) {
        const EventId id = sched.scheduleAt(at, [&log, name, body] {
          log.push_back(name);
          if (body) body();
        });
        oracle.push(entry(at, id));
        names[id] = std::move(name);
        return id;
      };
  // Ties at t=10us, scheduled out of order.
  add(Time::micros(10), "tie-a", {});
  add(Time::micros(5), "early", [&] {
    // Cascade: schedule a tie for t=10us from inside a handler; FIFO
    // order puts it after the two pre-scheduled ties.
    add(Time::micros(10), "tie-c", {});
    // And a far-future timer that later gets cancelled.
    const EventId doomed = add(Time::seconds(5), "never", {});
    add(Time::seconds(2), "cancel", [&, doomed] {
      sched.cancel(doomed);
      cancelled.push_back(doomed);
    });
  });
  add(Time::micros(10), "tie-b", {});
  EXPECT_STREQ(sched.queueName(), "calendar");
  EXPECT_EQ(sched.nextEventAt(), Time::micros(5));
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"early", "tie-a", "tie-b", "tie-c",
                                           "cancel"}));
  EXPECT_EQ(sched.executedCount(), 5u);

  std::vector<std::string> want;
  for (const auto& [at, id] : drain(oracle)) {
    if (std::find(cancelled.begin(), cancelled.end(), id) == cancelled.end()) {
      want.push_back(names.at(id));
    }
  }
  EXPECT_EQ(log, want);
}

TEST(EventQueueTest, SchedulerIntrospectionIsQueueAgnostic) {
  Scheduler sched;
  EXPECT_EQ(sched.nextEventAt(), Time::max());
  const EventId a = sched.scheduleAt(Time::millis(1), [] {});
  sched.scheduleAt(Time::millis(2), [] {});
  sched.scheduleAt(Time::seconds(9), [] {});  // calendar overflow
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
