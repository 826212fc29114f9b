// The Scheduler's pending-event set: a binary min-heap of same-timestamp
// runs.
//
// The Scheduler's correctness contract lives here: top()/pop() yield keys
// in strictly ascending (at, id) order — time first, then scheduling order
// among equal timestamps (the FIFO tie-break every determinism test
// depends on).
//
// Only the ordering key lives in the queue. The event's closure stays put
// in a Scheduler-owned slot named by `slot`, so a sift moves 24 bytes
// instead of a 64-byte closure.
//
// A broadcast is heard by every radio in range, and Channel::transmit
// schedules one rxStart per receiver at one instant and one rxEnd per
// receiver at another. So pushes at an equal timestamp form a *run*: one
// heap entry holds the run's head key, and the keys behind it wait in a
// FIFO of 16-byte nodes. Popping a run's head copies the next node into
// the heap top in place, with no sift. On the perfbench workloads this
// cuts heap pushes 7-9x; DESIGN.md "Engine architecture" has the
// ordering argument and the measurements.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace manet::sim {

using EventId = std::uint64_t;

/// Ordering key of one pending event. `id` is the Scheduler-issued
/// sequence number that serves as the FIFO tie-break among equal
/// timestamps (not the slot-and-stamp handle scheduleAt returns); `slot`
/// names the closure's Scheduler slot.
struct EventKey {
  Time at;
  EventId id = 0;
  std::uint32_t slot = 0;
};

/// Single value, ignored: perfbench/driver/workloads.cc still sets
/// cfg.eventQueue to it.
enum class EventQueueKind : std::uint8_t { kCalendar };

/// Min-queue of EventKeys ordered by (at, id). Precondition of push():
/// ids arrive in strictly ascending order, as the Scheduler issues them.
class EventQueue {
 public:
  void push(EventKey k);
  /// The minimum key by (at, id). Precondition: !empty().
  EventKey top() const {
    const Entry& e = heap_.front();
    return EventKey{e.at, e.id, e.slot};
  }
  /// Remove and return the minimum key. Precondition: !empty().
  EventKey pop();
  /// Pending keys (not runs).
  std::size_t size() const { return size_; }
  bool empty() const { return heap_.empty(); }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Heap entry: a run's head key plus the run's index in runs_.
  struct Entry {
    Time at;
    EventId id = 0;
    std::uint32_t slot = 0;
    std::uint32_t run = 0;
  };
  static_assert(sizeof(Entry) == 24, "keep heap entries small");
  /// A key queued behind its run's head, in a singly linked FIFO.
  struct Node {
    EventId id = 0;
    std::uint32_t slot = 0;
    std::uint32_t next = kNone;
  };
  static_assert(sizeof(Node) == 16, "a node is smaller than a heap entry");
  /// The keys behind a run's head (kNone/kNone when there are none). A
  /// free run's `head` links the run free list.
  struct Run {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };
  /// A run that pushes may still join: opened recently and still pending.
  struct Open {
    Time at;
    std::uint32_t run = kNone;
  };

  void retire(std::uint32_t run);

  std::vector<Entry> heap_;
  std::vector<Run> runs_;
  std::vector<Node> nodes_;
  std::uint32_t freeRun_ = kNone;
  std::uint32_t freeNode_ = kNone;
  /// The two most recently opened runs still pending, newest first; an
  /// empty newest entry implies an empty older one. Two, because
  /// Channel::transmit alternates rxStart and rxEnd pushes per receiver.
  std::array<Open, 2> open_{};
  std::size_t size_ = 0;
  EventId lastId_ = 0;
};

}  // namespace manet::sim
