#include "src/sim/scheduler.h"

namespace manet::sim {

std::uint32_t Scheduler::vacantSlot() {
  if (!freeSlots_.empty()) return freeSlots_.back();
  if (slotCount_ == chunks_.size() * kChunkSlots) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return slotCount_;
}

EventId Scheduler::enqueue(Time at, std::uint32_t members, std::uint32_t s,
                           prof::Category cat) {
  if (freeSlots_.empty()) {
    ++slotCount_;
  } else {
    freeSlots_.pop_back();
  }
  Slot& slot = slotAt(s);
  ++slot.stamp;
  slot.members = members;
  slot.cat = cat;
  slot.pending = true;
  slot.cancelled = false;
  queue_.push(EventKey{at, nextSeq_, s});
  nextSeq_ += members;
  queued_ += members;
  if (queued_ > queuePeak_) queuePeak_ = queued_;
  return (EventId{slot.stamp} << 32) | (EventId{s} + 1);
}

void Scheduler::release(std::uint32_t s) {
  slotAt(s).fn.reset();
  freeSlots_.push_back(s);
}

void Scheduler::cancel(EventId id) {
  // kInvalidEvent maps to slot UINT32_MAX, which is never handed out.
  const auto s = static_cast<std::uint32_t>(id) - 1U;
  if (s >= slotCount_) return;
  Slot& slot = slotAt(s);
  if (slot.stamp != static_cast<std::uint32_t>(id >> 32) || !slot.pending ||
      slot.cancelled) {
    return;  // a stale handle, or fired, running or already cancelled
  }
  slot.cancelled = true;
  ++cancelledLive_;
}

Time Scheduler::nextEventAt() {
  return queue_.empty() ? Time::max() : queue_.top().at;
}

void Scheduler::runUntil(Time until) {
  while (!queue_.empty() && queue_.top().at <= until) {
    const EventKey k = queue_.pop();
    // The slot's chunk never moves, so the closure can run where it lies
    // while the handler schedules more events. The slot is freed only
    // after its last member returns; a handler cancelling its own id finds
    // the slot no longer pending and does nothing.
    Slot& slot = slotAt(k.slot);
    slot.pending = false;
    if (slot.cancelled) {
      --queued_;
      --cancelledLive_;
      release(k.slot);
      continue;
    }
    now_ = k.at;
    // Members hold sequence numbers [k.id, k.id + members), and every key
    // pushed since has a larger one, so no other event can order between
    // them.
    for (std::uint32_t i = 0; i < slot.members; ++i) {
      --queued_;
      ++executed_;
      if (prof_ != nullptr) prof_->dispatch(slot.cat);
      slot.fn(i);
    }
    release(k.slot);
  }
  // Time spent outside runUntil belongs to no category.
  if (prof_ != nullptr) prof_->closeRun();
  if (now_ < until && until != Time::max()) now_ = until;
}

}  // namespace manet::sim
