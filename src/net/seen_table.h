// Bounded duplicate-suppression table for flooded control packets.
//
// Route requests and route errors are flooded, so a node hears each one
// many times and must act on the first copy only. The table remembers
// (originator, id) pairs, forgetting the oldest once it holds
// kSeenTableCapacity of them, so per-node state stays bounded over any run
// length. Membership is the only query: iteration order never reaches the
// simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_set>

#include "src/net/packet.h"

namespace manet::net {

inline constexpr std::size_t kSeenTableCapacity = 4096;

class SeenTable {
 public:
  bool contains(NodeId origin, std::uint32_t id) const {
    return keys_.contains(seenKey(origin, id));
  }

  /// Remember (origin, id). Returns false if it was already remembered.
  bool insert(NodeId origin, std::uint32_t id) {
    const std::uint64_t key = seenKey(origin, id);
    if (!keys_.insert(key).second) return false;
    fifo_.push_back(key);
    if (fifo_.size() > kSeenTableCapacity) {
      keys_.erase(fifo_.front());
      fifo_.pop_front();
    }
    return true;
  }

 private:
  static std::uint64_t seenKey(NodeId origin, std::uint32_t id) {
    return (static_cast<std::uint64_t>(origin) << 32) | id;
  }

  std::unordered_set<std::uint64_t> keys_;
  std::deque<std::uint64_t> fifo_;
};

}  // namespace manet::net
