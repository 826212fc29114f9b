// Discrete-event scheduler: the heart of the simulator.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/prof/profiler.h"
#include "src/sim/event_fn.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace manet::sim {

/// Handle for a scheduled event, usable with Scheduler::cancel: the slot
/// number plus one in the low 32 bits and the slot's stamp in the high 32,
/// so no handle is 0. (EventId itself is declared in event_queue.h.)
inline constexpr EventId kInvalidEvent = 0;

/// Single-threaded discrete-event scheduler.
///
/// Events at equal timestamps fire in scheduling (FIFO) order, which keeps
/// runs deterministic. The pending set is an EventQueue, a binary heap of
/// 24-byte (at, seq, slot) keys.
///
/// An event *group* (scheduleGroup) is `count` events at one instant that
/// share one closure slot and one key and take the consecutive sequence
/// numbers [seq, seq + count). runUntil dispatches the members one by one:
/// each leaves the pending count, bumps executedCount() and is charged to
/// the profiler just before it runs, exactly as a single event would.
/// scheduleAt is a group of one, so there is one dispatch loop. A group's
/// members run back to back: anything a member schedules takes a larger
/// sequence number, so it orders after the group's last member even at the
/// same instant. A broadcast's receptions are such a group (DESIGN.md
/// "Engine architecture").
///
/// Everything else about an event lives in its closure slot: the closure,
/// its category, its member count, a generation stamp and
/// pending/cancelled flags. Slots sit in fixed-size chunks that never move
/// and are recycled through a free list. scheduleAt builds the closure
/// directly in a slot and runUntil invokes it there, freeing the slot once
/// its last member returns, so a closure is never relocated and a handler
/// may schedule freely while it runs. Cancellation is lazy: cancel() flags
/// the slot, and the key is skipped when it reaches the head of the queue,
/// which is when the closure is destroyed and its slot freed. An EventId
/// names a slot and the stamp the slot had when the event was scheduled,
/// so cancelling a fired, cancelled or reused handle is a no-op and
/// pendingCount() stays exact, with no per-id state: the scheduler's
/// memory is bounded by the queue's peak.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Valid inside and outside event handlers.
  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now()).
  /// `cat` attributes the handler's wall time when profiling is on. The
  /// callable is constructed in its slot, where it also runs.
  template <typename F>
  EventId scheduleAt(Time at, F&& fn,
                     prof::Category cat = prof::Category::kOther) {
    assert(at >= now_ && "cannot schedule in the past");
    const std::uint32_t s = vacantSlot();
    slotAt(s).fn.emplace(std::forward<F>(fn));
    return enqueue(at, 1, s, cat);
  }

  /// Schedule `count` (> 0) events at `at` that run `fn(i)` for
  /// i = 0 .. count-1, in that order, with nothing in between. Each member
  /// counts as one event everywhere a single event would. A group has no
  /// handle: it cannot be cancelled.
  template <typename F>
  void scheduleGroup(Time at, std::uint32_t count, F&& fn,
                     prof::Category cat = prof::Category::kOther) {
    assert(at >= now_ && "cannot schedule in the past");
    assert(count > 0 && "a group needs a member");
    const std::uint32_t s = vacantSlot();
    slotAt(s).fn.emplace(std::forward<F>(fn));
    enqueue(at, count, s, cat);
  }

  /// Schedule `fn` to run `delay` after now().
  template <typename F>
  EventId scheduleAfter(Time delay, F&& fn,
                        prof::Category cat = prof::Category::kOther) {
    return scheduleAt(now_ + delay, std::forward<F>(fn), cat);
  }

  /// Cancel a pending event. Safe to call with an already-fired, cancelled,
  /// running or invalid id, and with a stale id whose slot now holds
  /// another event.
  void cancel(EventId id);

  /// Run events until the queue is empty or simulated time exceeds `until`.
  /// Events scheduled exactly at `until` still run.
  void runUntil(Time until);

  /// Run all remaining events.
  void run() { runUntil(Time::max()); }

  // --- introspection ---

  /// Number of events (group members each count) executed so far;
  /// cancelled entries are popped without dispatching and do not count.
  std::uint64_t executedCount() const { return executed_; }
  /// Number of events still queued and not cancelled.
  std::size_t pendingCount() const { return queued_ - cancelledLive_; }
  /// Largest number of queued events ever reached (cancelled entries
  /// included). Tracked unconditionally.
  std::size_t queueHighWater() const { return queuePeak_; }
  /// Timestamp of the next entry that would dispatch (cancelled entries
  /// included until they are lazily popped), or Time::max() when idle.
  /// Meant for between runUntil calls: inside a group member's handler it
  /// does not see the group's later members.
  Time nextEventAt();
  /// Closure slots handed out so far. A slot is freed when its cancelled
  /// key is popped or its last member returns, so this stays at most
  /// queueHighWater() + 1 (the running closure holds its slot while it
  /// schedules).
  std::size_t slotCount() const { return slotCount_; }
  /// Always "heap"; perfbench/driver/main.cc prints it.
  const char* queueName() const { return "heap"; }

  /// Attach a profiler (nullable; not owned). When set, each dispatch is
  /// counted against its scheduling category, and wall time is charged to
  /// categories in runs of consecutive same-category dispatches; the open
  /// run is closed when runUntil returns. The profiler only observes wall
  /// time — never sim time or any RNG stream — so profiled runs stay
  /// bit-identical.
  void setProfiler(prof::Profiler* p) { prof_ = p; }
  prof::Profiler* profiler() const { return prof_; }

 private:
  /// An event's payload and status. A free slot holds an empty closure and
  /// neither flag.
  struct Slot {
    EventFn fn;
    /// Bumped each time the slot is handed to a new event. It is 32 bits,
    /// so a stale handle could match again only after 2^32 reuses of its
    /// one slot while the handle is still held.
    std::uint32_t stamp = 0;
    std::uint32_t members = 0;  // events the key stands for (1 unless a group)
    prof::Category cat = prof::Category::kOther;
    bool pending = false;    // scheduled and its key not yet popped
    bool cancelled = false;  // cancelled while pending
  };
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSlots = 1U << kChunkBits;

  Slot& slotAt(std::uint32_t s) {
    return chunks_[s >> kChunkBits][s & (kChunkSlots - 1)];
  }
  /// The slot the next event will take (the most recently freed one, else
  /// a fresh one), without claiming it.
  std::uint32_t vacantSlot();
  /// Claim slot `s` (from vacantSlot(), closure already in place) for
  /// `members` events, stamp it and push its key.
  EventId enqueue(Time at, std::uint32_t members, std::uint32_t s,
                  prof::Category cat);
  /// Destroy the slot's closure and put it on the free list.
  void release(std::uint32_t s);

  Time now_ = Time::zero();
  /// Sequence number of the next event: the FIFO tie-break among equal
  /// timestamps. A group takes one per member.
  std::uint64_t nextSeq_ = 1;
  std::uint64_t executed_ = 0;
  EventQueue queue_;
  /// Slot s is chunks_[s >> kChunkBits][s % kChunkSlots]. Chunks are never
  /// moved or freed before the Scheduler, so a running closure stays put
  /// while its handler schedules more events.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slotCount_ = 0;
  std::vector<std::uint32_t> freeSlots_;
  /// Events queued and not yet dispatched or dropped: a group's members
  /// leave one at a time, just before each runs.
  std::size_t queued_ = 0;
  /// Keys in queue_ whose slot is flagged cancelled (kept exact so
  /// pendingCount() cannot underflow).
  std::size_t cancelledLive_ = 0;
  std::size_t queuePeak_ = 0;
  prof::Profiler* prof_ = nullptr;
};

}  // namespace manet::sim
