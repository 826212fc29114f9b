#include "src/sim/scheduler.h"

#include <cassert>
#include <utility>

namespace manet::sim {

EventId Scheduler::scheduleAt(Time at, EventFn fn, prof::Category cat) {
  assert(at >= now_ && "cannot schedule in the past");
  const EventId id = nextId_++;
  std::uint32_t slot;
  if (freeSlots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  slots_[slot].cat = cat;
  queue_.push(EventKey{at, id, slot});
  if (queue_.size() > queuePeak_) queuePeak_ = queue_.size();
  states_.push_back(EvState::kPending);
  assert(baseId_ + states_.size() == nextId_);
  return id;
}

Scheduler::EvState* Scheduler::stateOf(EventId id) {
  if (id < baseId_ || id >= nextId_) return nullptr;
  return &states_[static_cast<std::size_t>(id - baseId_)];
}

void Scheduler::retire(EventId id) {
  EvState* st = stateOf(id);
  assert(st != nullptr && *st != EvState::kDone);
  if (*st == EvState::kCancelled) --cancelledLive_;
  *st = EvState::kDone;
  while (!states_.empty() && states_.front() == EvState::kDone) {
    states_.pop_front();
    ++baseId_;
  }
}

void Scheduler::cancel(EventId id) {
  EvState* st = stateOf(id);
  if (st == nullptr || *st != EvState::kPending) return;  // fired or cancelled
  *st = EvState::kCancelled;
  ++cancelledLive_;
}

Time Scheduler::nextEventAt() {
  return queue_.empty() ? Time::max() : queue_.top().at;
}

void Scheduler::runUntil(Time until) {
  while (!queue_.empty() && queue_.top().at <= until) {
    const EventKey k = queue_.pop();
    // Move the closure out and free its slot first: the handler may
    // schedule events, which can reuse the slot or grow slots_. The closure
    // is destroyed at the end of this iteration, unrun if it was cancelled.
    EventFn fn = std::move(slots_[k.slot].fn);
    const prof::Category cat = slots_[k.slot].cat;
    freeSlots_.push_back(k.slot);
    const bool cancelled = *stateOf(k.id) == EvState::kCancelled;
    retire(k.id);  // a handler cancelling its own id is a no-op
    if (cancelled) continue;
    now_ = k.at;
    ++executed_;
    // Span capture reads only the profiler's wall clock and writes into a
    // bounded buffer nothing in the simulation reads back.
    const bool capture = spanCapacity_ > 0;
    const std::uint64_t w0 =
        capture && prof_ != nullptr ? prof_->clockNs() : 0;
    if (prof_ != nullptr) prof_->dispatch(cat);
    fn();
    if (capture) {
      const std::uint64_t w1 =
          prof_ != nullptr ? prof_->clockNs() : 0;
      recordSpan(DispatchSpan{k.at, executed_, w0, w1 - w0, cat});
    }
  }
  // Time spent outside runUntil belongs to no category.
  if (prof_ != nullptr) prof_->closeRun();
  if (now_ < until && until != Time::max()) now_ = until;
}

void Scheduler::enableSpanCapture(std::size_t capacity) {
  spanCapacity_ = capacity;
  spans_.clear();
  spans_.reserve(capacity);
  spanHead_ = 0;
}

void Scheduler::recordSpan(const DispatchSpan& s) {
  if (spans_.size() < spanCapacity_) {
    spans_.push_back(s);
    return;
  }
  spans_[spanHead_] = s;
  spanHead_ = (spanHead_ + 1) % spanCapacity_;
}

std::vector<DispatchSpan> Scheduler::dispatchSpans() const {
  std::vector<DispatchSpan> out;
  out.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out.push_back(spans_[(spanHead_ + i) % spans_.size()]);
  }
  return out;
}

}  // namespace manet::sim
