// Flat hash map keyed by a directed link, shared by the DSR caches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/net/packet.h"

namespace manet::core {

/// Open-addressing map from a directed link to a small copyable value: one
/// flat bucket array, linear probing, backward-shift deletion (no
/// tombstones). It doubles when half full and never shrinks, so once a cache
/// has reached its working size no operation allocates. Bucket order depends
/// on the hash; callers must never let it become observable.
template <class V>
class LinkMap {
 public:
  std::size_t size() const { return size_; }

  V* find(net::LinkId link) {
    if (size_ == 0) return nullptr;
    const std::uint64_t key = pack(link);
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Bucket& b = buckets_[i];
      if (!b.used) return nullptr;
      if (b.key == key) return &b.value;
    }
  }
  const V* find(net::LinkId link) const {
    return const_cast<LinkMap*>(this)->find(link);
  }

  /// Stores `value` under `link` unless the link is present. Returns the
  /// stored value (valid until the next insertion or erase) and whether it
  /// was inserted.
  std::pair<V*, bool> tryEmplace(net::LinkId link, const V& value) {
    if (2 * (size_ + 1) > buckets_.size()) grow();
    const std::uint64_t key = pack(link);
    std::size_t i = home(key);
    for (; buckets_[i].used; i = (i + 1) & mask_) {
      if (buckets_[i].key == key) return {&buckets_[i].value, false};
    }
    buckets_[i] = Bucket{key, value, true};
    ++size_;
    return {&buckets_[i].value, true};
  }

  bool erase(net::LinkId link) {
    if (size_ == 0) return false;
    const std::uint64_t key = pack(link);
    std::size_t i = home(key);
    for (; buckets_[i].used; i = (i + 1) & mask_) {
      if (buckets_[i].key == key) break;
    }
    if (!buckets_[i].used) return false;
    eraseAt(i);
    return true;
  }

  /// Erases every entry whose value satisfies `pred`.
  template <class Pred>
  void eraseIf(Pred pred) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      // eraseAt may pull a later entry into bucket i: look again.
      while (buckets_[i].used && pred(buckets_[i].value)) eraseAt(i);
    }
  }

  /// Empties the map and keeps its buckets.
  void clear() {
    for (Bucket& b : buckets_) b.used = false;
    size_ = 0;
  }

 private:
  struct Bucket {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  static std::uint64_t pack(net::LinkId l) {
    return (static_cast<std::uint64_t>(l.from) << 32) | l.to;
  }
  // Fibonacci hashing: the top bits of key * 2^64/phi.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Frees bucket i. Backward shift: pull later members of the probe run
  /// into the hole unless their home lies cyclically in (hole, j].
  void eraseAt(std::size_t i) {
    for (std::size_t j = (i + 1) & mask_; buckets_[j].used;
         j = (j + 1) & mask_) {
      const std::size_t k = home(buckets_[j].key);
      const bool stays = i <= j ? (i < k && k <= j) : (i < k || k <= j);
      if (!stays) {
        buckets_[i] = buckets_[j];
        i = j;
      }
    }
    buckets_[i].used = false;
    --size_;
  }

  void grow() {
    std::vector<Bucket> old = std::move(buckets_);
    const std::size_t n = old.empty() ? 16 : 2 * old.size();
    buckets_.assign(n, Bucket{});
    mask_ = n - 1;
    shift_ = 64;
    for (std::size_t m = n; m > 1; m >>= 1) --shift_;
    size_ = 0;
    for (const Bucket& b : old) {
      if (!b.used) continue;
      std::size_t i = home(b.key);
      while (buckets_[i].used) i = (i + 1) & mask_;
      buckets_[i] = b;
      ++size_;
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace manet::core
