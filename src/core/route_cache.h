// DSR path route cache.
//
// A *path cache* (as in the CMU Monarch ns-2 DSR and this paper — contrast
// with the link caches of Hu & Johnson) stores complete source routes, each
// beginning at the caching node. A route to destination D is the shortest
// stored path prefix ending at D.
//
// For the paper's timer-based expiry technique a link counts as used at the
// later of its path's insertion and the last time the node forwarded a
// unicast packet over it; expireUnusedSince() prunes the portion of each
// path whose links have gone unused longer than the timeout.
//
// Storage is flat: the paths live in a ring of `capacity` slots whose hop
// vectors are reused, so FIFO eviction is O(1) and a warm cache inserts
// without allocating. Each slot carries a hash of its hops and a 64-bit
// node-set mask (lookup and removeLink skip paths that cannot match). An
// open-addressed table of 16-bit slot numbers, keyed by that hash, finds
// an already-cached path without scanning the ring; it is rebuilt only
// after a call that truncated a path. Link-use marks are recorded only
// with expiry on, and each expiry pass drops those older than its cutoff.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "src/core/cache_structure.h"
#include "src/core/link_map.h"
#include "src/net/packet.h"
#include "src/sim/time.h"

namespace manet::core {

class RouteCache final : public RouteCacheBase {
 public:
  struct CachedPath {
    std::vector<net::NodeId> hops;  // hops.front() == owning node
    sim::Time addedAt;              // insertion / refresh time
    net::RouteProvenance prov{};    // birth record (id 0 = untracked insert)
  };

  /// The stored paths in FIFO order (oldest first). A view into the cache:
  /// valid until the cache next changes.
  class PathList {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = CachedPath;
      using difference_type = std::ptrdiff_t;
      using pointer = const CachedPath*;
      using reference = const CachedPath&;

      iterator() = default;
      reference operator*() const { return cache_->at(i_); }
      pointer operator->() const { return &cache_->at(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++i_;
        return old;
      }
      bool operator==(const iterator&) const = default;

     private:
      friend class PathList;
      iterator(const RouteCache* cache, std::size_t i) : cache_(cache), i_(i) {}
      const RouteCache* cache_ = nullptr;
      std::size_t i_ = 0;
    };

    std::size_t size() const { return cache_->count_; }
    bool empty() const { return cache_->count_ == 0; }
    const CachedPath& operator[](std::size_t i) const { return cache_->at(i); }
    iterator begin() const { return {cache_, 0}; }
    iterator end() const { return {cache_, cache_->count_}; }

   private:
    friend class RouteCache;
    explicit PathList(const RouteCache* cache) : cache_(cache) {}
    const RouteCache* cache_;
  };

  /// Largest capacity the 16-bit path index can name.
  static constexpr std::size_t kMaxCapacity = 0xFFFF;

  /// Throws std::invalid_argument if `capacity` exceeds kMaxCapacity.
  RouteCache(net::NodeId owner, std::size_t capacity);

  net::NodeId owner() const { return owner_; }
  std::size_t size() const override { return count_; }
  std::size_t capacity() const { return capacity_; }
  PathList paths() const { return PathList(this); }

  /// Insert a path (hops.front() must equal owner(); length >= 2;
  /// loop-free). Invalid paths are rejected; re-inserting an existing path
  /// keeps its original addedAt and provenance (lifetime samples measure age
  /// since first learned). When full, the oldest path is evicted (FIFO).
  bool insert(std::span<const net::NodeId> hops, sim::Time now,
              net::RouteOrigin origin = net::RouteOrigin::kNone) override;

  /// Shortest cached route from owner to `dest` (a prefix of any stored path
  /// works, since every stored node is reachable along the way). Ties break
  /// to the most recently added path. With `acceptLink`, candidates using a
  /// rejected link are skipped — other cached paths still serve. The result
  /// carries the winning path's provenance.
  std::optional<RouteLookup> lookup(
      net::NodeId dest, const LinkFilter& acceptLink = {}) const override;

  /// True if any stored path uses the directed link.
  bool containsLink(net::LinkId link) const override;

  /// Remove a broken link: every path using it is truncated just before the
  /// link (dropped entirely if nothing routable remains). Returns the
  /// addedAt times of the affected paths — the adaptive-timeout estimator
  /// uses them as route-lifetime samples.
  std::vector<sim::Time> removeLink(net::LinkId link, sim::Time now) override;

  /// Mark every link of `route` used at `now`, whether a stored path holds
  /// it or not (DsrAgent calls this only with expiry on).
  void markLinksUsed(std::span<const net::NodeId> route,
                     sim::Time now) override;

  /// Timer-based expiry: truncate each path at its first link unused since
  /// `cutoff` (links never seen in traffic keep their insertion time), and
  /// drop the marks older than `cutoff`. Returns the number of links pruned.
  std::size_t expireUnusedSince(sim::Time cutoff) override;

  void clear() override;
  void forEachRoute(const RouteVisitor& visit) const override;

  /// Links marked since the last expiry pass's cutoff.
  std::size_t markTableSize() const { return marks_.size(); }

 private:
  /// Per-slot summary, kept apart from the hop vectors so scans over all
  /// paths touch one small contiguous array.
  struct PathKey {
    std::uint64_t hash = 0;   // of the hop sequence
    std::uint64_t nodes = 0;  // bit (id % 64) set for every hop
  };

  static PathKey keyOf(std::span<const net::NodeId> hops);
  static std::uint64_t nodeBit(net::NodeId n) {
    return std::uint64_t{1} << (n & 63U);
  }

  /// Physical slot of the i-th oldest path.
  std::size_t slotOf(std::size_t i) const {
    const std::size_t s = head_ + i;
    return s < ring_.size() ? s : s - ring_.size();
  }
  std::size_t nextSlot(std::size_t s) const {
    return s + 1 == ring_.size() ? 0 : s + 1;
  }
  const CachedPath& at(std::size_t i) const { return ring_[slotOf(i)]; }

  /// Cut the path in `slot` down to its first `keep` nodes (the index is
  /// stale until dropUnroutable()).
  void truncate(std::size_t slot, std::size_t keep);
  /// After truncations: compact away paths left with fewer than two nodes
  /// and rebuild the index over the survivors.
  void dropUnroutable();

  /// Index position where a probe for `hash` starts (the hash's top bits:
  /// FNV-1a's low bits depend only on the ids' low bits).
  std::size_t home(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash >> indexShift_);
  }
  std::size_t nextPos(std::size_t i) const {
    return (i + 1) & (index_.size() - 1);
  }
  /// Add / remove the index entry of live slot `slot` (keys_ must hold its
  /// current hash).
  void indexSlot(std::size_t slot);
  void unindexSlot(std::size_t slot);
  sim::Time linkLastUsed(net::LinkId link, sim::Time addedAt) const;

  net::NodeId owner_;
  std::size_t capacity_;
  /// FIFO ring: the i-th oldest path is ring_[slotOf(i)], i < count_. Grows
  /// to `capacity` slots, then wraps; vacated slots keep their hop buffers.
  std::vector<CachedPath> ring_;
  std::vector<PathKey> keys_;  // parallel to ring_
  /// Linear-probing table over the live slots: an entry is slot + 1, 0 is
  /// empty, and its size is the power of two at least 2 * capacity. Each
  /// live slot has its own entry, so two equal paths (a truncation can
  /// leave them) are both found, and FIFO eviction removes exactly the
  /// evicted slot's entry (backward-shift deletion, no tombstones).
  std::vector<std::uint16_t> index_;
  int indexShift_ = 64;  // 64 - log2(index_.size())
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  /// Last mark per link. Marks predating a path's addedAt never decide its
  /// expiry, so they need not follow the stored paths.
  LinkMap<sim::Time> marks_;
};

}  // namespace manet::core
