// The Scheduler's pending-event set: a binary min-heap of 24-byte keys.
//
// The Scheduler's correctness contract lives here: peek()/pop() yield
// keys in strictly ascending (at, id) order — time first, then scheduling
// order among equal timestamps (the FIFO tie-break every determinism test
// depends on).
//
// Only the ordering key lives in the heap. The event's closure stays put in
// a Scheduler-owned slot named by `slot`, so a sift moves 24 bytes instead
// of a 64-byte inline closure and its vtable calls. At the pending-set
// depths the simulator reaches (hundreds to about a thousand entries) a
// heap of small keys beats a calendar queue; DESIGN.md "Engine
// architecture" has the measurements.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace manet::sim {

using EventId = std::uint64_t;

/// Ordering key of one pending event. `id` is the Scheduler-issued
/// sequence number that doubles as the FIFO tie-break among equal
/// timestamps; `slot` names the closure's Scheduler slot.
struct EventKey {
  Time at;
  EventId id = 0;
  std::uint32_t slot = 0;
};
static_assert(sizeof(EventKey) <= 24, "keep heap entries small");

/// Single value, and it selects the heap: perfbench/driver/workloads.cc
/// still sets cfg.eventQueue to it.
enum class EventQueueKind : std::uint8_t { kCalendar };

/// Binary min-heap of EventKeys ordered by (at, id).
class EventQueue {
 public:
  void push(EventKey k);
  /// The minimum key by (at, id), or nullptr when empty. The pointer is
  /// invalidated by the next push/pop.
  const EventKey* peek() const {
    return heap_.empty() ? nullptr : &heap_.front();
  }
  /// Remove and return the minimum key. Precondition: !empty().
  EventKey pop();
  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

 private:
  std::vector<EventKey> heap_;
};

}  // namespace manet::sim
