// The Scheduler's pending-event set: a binary min-heap of (at, id, slot)
// keys.
//
// The Scheduler's correctness contract lives here: top()/pop() yield keys
// in strictly ascending (at, id) order — time first, then scheduling order
// among equal timestamps (the FIFO tie-break every determinism test
// depends on).
//
// Only the ordering key lives in the queue. The event's closure stays put
// in a Scheduler-owned slot named by `slot`, so a sift moves 24 bytes
// instead of a closure. A broadcast's receptions take one key per
// Scheduler::scheduleGroup group, not one per receiver, so the heap holds
// few equal-time keys; DESIGN.md "Engine architecture" has the ordering
// argument and the measurements.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace manet::sim {

using EventId = std::uint64_t;

/// Ordering key of one pending event or event group. `id` is the
/// sequence number the Scheduler assigns, the FIFO tie-break among equal
/// timestamps (a group's first member's; not the slot-and-stamp handle
/// scheduleAt returns); `slot` names the closure's Scheduler slot.
struct EventKey {
  Time at;
  EventId id = 0;
  std::uint32_t slot = 0;
};

/// Single value, ignored: perfbench/driver/workloads.cc still sets
/// cfg.eventQueue to it.
enum class EventQueueKind : std::uint8_t { kCalendar };

/// Min-queue of EventKeys ordered by (at, id). Ids must be distinct.
class EventQueue {
 public:
  void push(EventKey k);
  /// The minimum key by (at, id). Precondition: !empty().
  const EventKey& top() const { return heap_.front(); }
  /// Remove and return the minimum key. Precondition: !empty().
  EventKey pop();
  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

 private:
  std::vector<EventKey> heap_;
};

}  // namespace manet::sim
