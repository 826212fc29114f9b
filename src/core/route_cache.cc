#include "src/core/route_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace manet::core {

RouteCache::RouteCache(net::NodeId owner, std::size_t capacity)
    : owner_(owner), capacity_(capacity) {
  if (capacity > kMaxCapacity) {
    throw std::invalid_argument("RouteCache: capacity above " +
                                std::to_string(kMaxCapacity));
  }
  std::size_t size = 2;
  while (size < 2 * capacity) size *= 2;
  index_.assign(size, 0);
  indexShift_ = 64 - std::countr_zero(size);
}

void RouteCache::indexSlot(std::size_t slot) {
  std::size_t i = home(keys_[slot].hash);
  while (index_[i] != 0) i = nextPos(i);
  index_[i] = static_cast<std::uint16_t>(slot + 1);
}

void RouteCache::unindexSlot(std::size_t slot) {
  std::size_t hole = home(keys_[slot].hash);
  while (index_[hole] != slot + 1) {
    assert(index_[hole] != 0 && "slot missing from the path index");
    hole = nextPos(hole);
  }
  // Backward shift: pull each later entry of the cluster into the hole
  // unless the hole lies before its home (it would become unreachable).
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = nextPos(hole); index_[j] != 0; j = nextPos(j)) {
    const std::size_t h = home(keys_[index_[j] - 1U].hash);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;
}

RouteCache::PathKey RouteCache::keyOf(std::span<const net::NodeId> hops) {
  PathKey k;
  k.hash = 0xcbf29ce484222325ULL;  // FNV-1a over the node ids
  for (net::NodeId n : hops) {
    k.hash = (k.hash ^ n) * 0x100000001b3ULL;
    k.nodes |= nodeBit(n);
  }
  return k;
}

bool RouteCache::insert(std::span<const net::NodeId> hops, sim::Time now,
                        net::RouteOrigin origin) {
  if (hops.size() < 2 || hops.front() != owner_) return false;
  if (net::routeHasDuplicates(hops)) return false;

  // Already cached: keep the original addedAt and provenance. Forwarders
  // re-learn the same route from every packet they relay; refreshing the
  // timestamp here would collapse the route-lifetime samples the adaptive
  // timeout feeds on (lifetime = break time - time the route was first
  // entered), and re-stamping provenance would hide which insertion
  // actually created the entry.
  const PathKey key = keyOf(hops);
  for (std::size_t i = home(key.hash); index_[i] != 0; i = nextPos(i)) {
    const std::size_t s = index_[i] - 1U;
    if (keys_[s].hash == key.hash &&
        std::ranges::equal(ring_[s].hops, hops)) {
      return true;
    }
  }
  if (count_ >= capacity_ && count_ > 0) {  // FIFO eviction
    unindexSlot(head_);
    head_ = nextSlot(head_);
    --count_;
    traceCacheEvent(telemetry::TraceEvent::kCacheEvict, 1);
  }
  net::RouteProvenance prov;
  if (origin != net::RouteOrigin::kNone) {
    prov = net::RouteProvenance::next(origin, owner_, now, hops.size());
  }
  // The ring grows only while it has never wrapped (head_ == 0), so the
  // new slot lands right after the newest path.
  if (count_ == ring_.size()) {
    ring_.emplace_back();
    keys_.emplace_back();
  }
  const std::size_t s = slotOf(count_);
  ring_[s].hops.assign(hops.begin(), hops.end());
  ring_[s].addedAt = now;
  ring_[s].prov = prov;
  keys_[s] = key;
  indexSlot(s);
  ++count_;
  traceCacheInsert(prov, 1);
  return true;
}

std::optional<RouteLookup> RouteCache::lookup(
    net::NodeId dest, const LinkFilter& acceptLink) const {
  const CachedPath* best = nullptr;
  std::size_t bestLen = std::numeric_limits<std::size_t>::max();
  const std::uint64_t destBit = nodeBit(dest);
  for (std::size_t i = 0, s = head_; i < count_; ++i, s = nextSlot(s)) {
    if ((keys_[s].nodes & destBit) == 0) continue;
    const CachedPath& p = ring_[s];
    auto it = std::find(p.hops.begin(), p.hops.end(), dest);
    if (it == p.hops.end() || it == p.hops.begin()) continue;
    const auto len = static_cast<std::size_t>(it - p.hops.begin()) + 1;
    // Shortest wins; among equals the later (more recently added) one.
    if (len > bestLen) continue;
    if (acceptLink) {
      bool ok = true;
      for (std::size_t j = 0; j + 1 < len; ++j) {
        if (!acceptLink(net::LinkId{p.hops[j], p.hops[j + 1]})) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
    }
    best = &p;
    bestLen = len;
  }
  if (best == nullptr) return std::nullopt;
  RouteLookup out;
  out.hops.assign(best->hops.begin(),
                  best->hops.begin() + static_cast<std::ptrdiff_t>(bestLen));
  out.prov = best->prov;
  return out;
}

bool RouteCache::containsLink(net::LinkId link) const {
  const std::uint64_t ends = nodeBit(link.from) | nodeBit(link.to);
  for (std::size_t i = 0, s = head_; i < count_; ++i, s = nextSlot(s)) {
    if ((keys_[s].nodes & ends) == ends &&
        net::routeContainsLink(ring_[s].hops, link)) {
      return true;
    }
  }
  return false;
}

std::vector<sim::Time> RouteCache::removeLink(net::LinkId link,
                                              sim::Time /*now*/) {
  std::vector<sim::Time> affected;
  const std::uint64_t ends = nodeBit(link.from) | nodeBit(link.to);
  for (std::size_t i = 0, s = head_; i < count_; ++i, s = nextSlot(s)) {
    if ((keys_[s].nodes & ends) != ends) continue;
    const std::vector<net::NodeId>& hops = ring_[s].hops;
    for (std::size_t j = 0; j + 1 < hops.size(); ++j) {
      if (hops[j] == link.from && hops[j + 1] == link.to) {
        affected.push_back(ring_[s].addedAt);
        truncate(s, j + 1);  // truncate at the point of failure
        break;
      }
    }
  }
  if (!affected.empty()) dropUnroutable();
  return affected;
}

void RouteCache::markLinksUsed(std::span<const net::NodeId> route,
                               sim::Time now) {
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    *marks_.tryEmplace(net::LinkId{route[i], route[i + 1]}, now).first = now;
  }
}

sim::Time RouteCache::linkLastUsed(net::LinkId link, sim::Time addedAt) const {
  const sim::Time* mark = marks_.find(link);
  return mark != nullptr ? std::max(*mark, addedAt) : addedAt;
}

std::size_t RouteCache::expireUnusedSince(sim::Time cutoff) {
  std::size_t pruned = 0;
  for (std::size_t i = 0, s = head_; i < count_; ++i, s = nextSlot(s)) {
    const CachedPath& p = ring_[s];
    for (std::size_t j = 0; j + 1 < p.hops.size(); ++j) {
      const net::LinkId link{p.hops[j], p.hops[j + 1]};
      if (linkLastUsed(link, p.addedAt) < cutoff) {
        pruned += p.hops.size() - (j + 1);
        truncate(s, j + 1);
        break;
      }
    }
  }
  if (pruned > 0) dropUnroutable();
  // Surviving links all count as used at or after `cutoff`, and later paths
  // are added later: an older mark can never decide a later pass.
  marks_.eraseIf([cutoff](sim::Time mark) { return mark < cutoff; });
  if (pruned > 0) {
    traceCacheEvent(telemetry::TraceEvent::kCacheExpire,
                    static_cast<std::int64_t>(pruned));
  }
  return pruned;
}

void RouteCache::clear() {
  head_ = 0;
  count_ = 0;
  std::ranges::fill(index_, 0);
  marks_.clear();
}

void RouteCache::forEachRoute(const RouteVisitor& visit) const {
  for (std::size_t i = 0, s = head_; i < count_; ++i, s = nextSlot(s)) {
    visit(ring_[s].hops);
  }
}

void RouteCache::truncate(std::size_t slot, std::size_t keep) {
  std::vector<net::NodeId>& hops = ring_[slot].hops;
  hops.resize(keep);
  keys_[slot] = keyOf(hops);
}

void RouteCache::dropUnroutable() {
  // Compact the survivors towards the head, keeping FIFO order.
  std::size_t kept = 0;
  for (std::size_t i = 0, r = head_, w = head_; i < count_;
       ++i, r = nextSlot(r)) {
    if (ring_[r].hops.size() < 2) continue;
    if (w != r) {
      std::swap(ring_[w], ring_[r]);
      keys_[w] = keys_[r];
    }
    w = nextSlot(w);
    ++kept;
  }
  count_ = kept;
  std::ranges::fill(index_, 0);
  for (std::size_t i = 0, s = head_; i < count_; ++i, s = nextSlot(s)) {
    indexSlot(s);
  }
}

}  // namespace manet::core
