// Test-only ordering oracle for sim::CalendarEventQueue: a binary min-heap
// over (at, id). It has the calendar queue's push/peek/pop/size surface, so
// a test can feed both the same entries and compare them pop for pop.
#pragma once

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"

namespace manet::sim {

class HeapEventQueue {
 public:
  void push(EventEntry e) {
    heap_.push_back(std::move(e));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  const EventEntry* peek() const {
    return heap_.empty() ? nullptr : &heap_.front();
  }
  EventEntry pop() {
    assert(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    EventEntry e = std::move(heap_.back());
    heap_.pop_back();
    return e;
  }
  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

 private:
  /// The entry popped first is the minimum by (at, id).
  struct Later {
    bool operator()(const EventEntry& a, const EventEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;  // FIFO among equal timestamps
    }
  };
  std::vector<EventEntry> heap_;
};

}  // namespace manet::sim
