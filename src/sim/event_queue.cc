#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace manet::sim {

namespace {
/// Heap comparator: the key popped first is the minimum by (at, id).
struct Later {
  bool operator()(const EventKey& a, const EventKey& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.id > b.id;  // FIFO among equal timestamps
  }
};
}  // namespace

void EventQueue::push(EventKey k) {
  heap_.push_back(k);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventKey EventQueue::pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const EventKey k = heap_.back();
  heap_.pop_back();
  return k;
}

}  // namespace manet::sim
