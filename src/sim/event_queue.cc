#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace manet::sim {

namespace {
/// Heap comparator on run heads: the run popped first holds the minimum
/// key by (at, id).
struct Later {
  template <class E>
  bool operator()(const E& a, const E& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.id > b.id;  // FIFO among equal timestamps
  }
};
}  // namespace

void EventQueue::push(EventKey k) {
  assert(k.id > lastId_ && "ids must be pushed in ascending order");
  lastId_ = k.id;
  ++size_;
  for (const Open& o : open_) {
    if (o.run == kNone || o.at != k.at) continue;
    // Join the open run: queue the key behind the run's last one.
    std::uint32_t n;
    if (freeNode_ != kNone) {
      n = freeNode_;
      freeNode_ = nodes_[n].next;
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[n] = Node{k.id, k.slot, kNone};
    Run& r = runs_[o.run];
    if (r.tail == kNone) {
      r.head = n;
    } else {
      nodes_[r.tail].next = n;
    }
    r.tail = n;
    return;
  }
  // Open a new run with this key as its head.
  std::uint32_t run;
  if (freeRun_ != kNone) {
    run = freeRun_;
    freeRun_ = runs_[run].head;
    runs_[run] = Run{};
  } else {
    run = static_cast<std::uint32_t>(runs_.size());
    runs_.emplace_back();
  }
  heap_.push_back(Entry{k.at, k.id, k.slot, run});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  open_[1] = open_[0];
  open_[0] = Open{k.at, run};
}

EventKey EventQueue::pop() {
  assert(!heap_.empty());
  Entry& top = heap_.front();
  const EventKey k{top.at, top.id, top.slot};
  --size_;
  Run& r = runs_[top.run];
  if (r.head == kNone) {
    retire(top.run);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    return k;
  }
  // The run's next key replaces its head in place. A run at this
  // timestamp below the top was opened later, so it holds only larger ids
  // (DESIGN.md "Engine architecture"): the new head still orders before
  // both children, and no sift is needed.
  const std::uint32_t n = r.head;
  top.id = nodes_[n].id;
  top.slot = nodes_[n].slot;
  r.head = nodes_[n].next;
  if (r.head == kNone) r.tail = kNone;
  nodes_[n].next = freeNode_;
  freeNode_ = n;
  return k;
}

void EventQueue::retire(std::uint32_t run) {
  if (open_[0].run == run) {
    open_[0] = open_[1];
    open_[1].run = kNone;
  } else if (open_[1].run == run) {
    open_[1].run = kNone;
  }
  runs_[run].head = freeRun_;
  freeRun_ = run;
}

}  // namespace manet::sim
