// Discrete-event scheduler: the heart of the simulator.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "src/prof/profiler.h"
#include "src/sim/event_fn.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace manet::sim {

/// Handle for a scheduled event, usable with Scheduler::cancel.
/// (EventId itself is declared in event_queue.h next to EventKey.)
inline constexpr EventId kInvalidEvent = 0;

/// One dispatched handler, captured for timeline export: when it ran in
/// simulated time, what it cost in wall time, and which category it was
/// scheduled under. Wall fields are zero when no profiler is attached
/// (capture still records order and categories).
struct DispatchSpan {
  Time at;                        // simulated time of the dispatch
  std::uint64_t seq = 0;          // 1-based dispatch index (executed count)
  std::uint64_t wallStartNs = 0;  // profiler clock at handler entry
  std::uint64_t wallDurNs = 0;    // handler wall-clock cost
  prof::Category cat = prof::Category::kOther;
};

/// Single-threaded discrete-event scheduler.
///
/// Events at equal timestamps fire in scheduling (FIFO) order, which keeps
/// runs deterministic. The pending set is an EventQueue: a heap of
/// same-timestamp runs of 24-byte keys, so a broadcast's burst of
/// equal-time receiver events costs one heap push and one sift, not one
/// per receiver. Each event is still dispatched on its own. Its closure
/// and category live in a slot of `slots_`, recycled through a free list,
/// so the queue never moves a closure. Cancellation is
/// lazy: a cancelled key is skipped when it reaches the head of the queue,
/// and only then is its closure destroyed and its slot freed. Event status
/// is tracked in a dense per-id window (ids are assigned sequentially and
/// retired roughly in order), so cancelling an already-fired id is a true
/// no-op and pendingCount() stays exact.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Valid inside and outside event handlers.
  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now()).
  /// `cat` attributes the handler's wall time when profiling is on.
  EventId scheduleAt(Time at, EventFn fn,
                     prof::Category cat = prof::Category::kOther);

  /// Schedule `fn` to run `delay` after now().
  EventId scheduleAfter(Time delay, EventFn fn,
                        prof::Category cat = prof::Category::kOther) {
    return scheduleAt(now_ + delay, std::move(fn), cat);
  }

  /// Cancel a pending event. Safe to call with an already-fired or invalid id.
  void cancel(EventId id);

  /// Run events until the queue is empty or simulated time exceeds `until`.
  /// Events scheduled exactly at `until` still run.
  void runUntil(Time until);

  /// Run all remaining events.
  void run() { runUntil(Time::max()); }

  // --- introspection ---

  /// Number of events executed so far (for microbenchmarks / sanity
  /// checks); cancelled entries are popped without dispatching and do not
  /// count.
  std::uint64_t executedCount() const { return executed_; }
  /// Number of events still queued and not cancelled.
  std::size_t pendingCount() const { return queue_.size() - cancelledLive_; }
  /// Largest raw queue size ever reached (cancelled entries included —
  /// this is the memory high-water mark). Tracked unconditionally.
  std::size_t queueHighWater() const { return queuePeak_; }
  /// Timestamp of the next entry that would dispatch (cancelled entries
  /// included until they are lazily popped), or Time::max() when idle.
  Time nextEventAt();
  /// Closure slots allocated so far. A popped key frees its slot for the
  /// next scheduleAt, so this stays equal to queueHighWater().
  std::size_t slotCount() const { return slots_.size(); }
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

  /// Keep the most recent `capacity` dispatch spans (0 disables). Purely
  /// observational: the buffer is bounded, reads only the profiler's wall
  /// clock, and nothing in the simulation ever consumes it, so capturing
  /// spans cannot perturb a run.
  void enableSpanCapture(std::size_t capacity);
  bool spanCaptureEnabled() const { return spanCapacity_ > 0; }
  /// Captured spans, oldest retained first.
  std::vector<DispatchSpan> dispatchSpans() const;

 private:
  enum class EvState : std::uint8_t { kPending, kCancelled, kDone };

  /// An event's payload. A free slot holds an empty closure.
  struct Slot {
    EventFn fn;
    prof::Category cat = prof::Category::kOther;
  };

  /// Status slot for `id`, or nullptr if the id was never issued or its
  /// slot has been retired (the event already fired).
  EvState* stateOf(EventId id);
  /// Mark the popped entry done and retire the leading run of done slots.
  void retire(EventId id);

  Time now_ = Time::zero();
  EventId nextId_ = 1;
  std::uint64_t executed_ = 0;
  EventQueue queue_;
  /// Payload of every pending key, indexed by EventKey::slot. Handlers may
  /// schedule while running, so runUntil moves a closure out of its slot
  /// before invoking it (the vector can grow underneath).
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
  /// states_[id - baseId_] for every id not yet retired. The window stays
  /// small because events retire in near-id order; it is trimmed from the
  /// front as soon as the oldest outstanding id fires.
  std::deque<EvState> states_;
  EventId baseId_ = 1;
  /// Entries in queue_ whose state is kCancelled (kept exact so
  /// pendingCount() cannot underflow).
  std::size_t cancelledLive_ = 0;
  std::size_t queuePeak_ = 0;
  prof::Profiler* prof_ = nullptr;
  /// Dispatch-span ring (see enableSpanCapture): fixed capacity, overwrite
  /// oldest. Empty unless capture is enabled.
  std::vector<DispatchSpan> spans_;
  std::size_t spanCapacity_ = 0;
  std::size_t spanHead_ = 0;  // next write position once full

  void recordSpan(const DispatchSpan& s);
};

}  // namespace manet::sim
