// Differential test of the flat route caches against their original
// node-based implementations.
//
// The `oracle` namespace keeps the straightforward versions of RouteCache,
// LinkCache and NegativeCache (a vector of paths scanned on every call, a
// std::map link graph searched with a fresh hash map per lookup, a deque
// FIFO). Seeded random operation sequences run through both; every return
// value, provenance record, visit order, link-filter call and trace record
// must match. Time never runs backwards, as in a simulation: the link-use
// mark table of RouteCache is output-identical only under that condition.
// A second parameter set draws node ids from 0..399, where RouteCache's
// 64-bit node mask aliases.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/link_cache.h"
#include "src/core/link_map.h"
#include "src/core/negative_cache.h"
#include "src/core/route_cache.h"
#include "src/sim/rng.h"
#include "src/telemetry/trace.h"

namespace manet::core {
namespace oracle {

class RouteCache final : public RouteCacheBase {
 public:
  struct CachedPath {
    std::vector<net::NodeId> hops;
    sim::Time addedAt;
    net::RouteProvenance prov{};
  };

  RouteCache(net::NodeId owner, std::size_t capacity)
      : owner_(owner), capacity_(capacity) {}

  std::size_t size() const override { return paths_.size(); }
  const std::vector<CachedPath>& paths() const { return paths_; }

  bool insert(std::span<const net::NodeId> hops, sim::Time now,
              net::RouteOrigin origin = net::RouteOrigin::kNone) override {
    if (hops.size() < 2 || hops.front() != owner_) return false;
    if (net::routeHasDuplicates(hops)) return false;
    std::vector<net::NodeId> path(hops.begin(), hops.end());
    for (const CachedPath& p : paths_) {
      if (p.hops == path) return true;
    }
    if (paths_.size() >= capacity_) {
      paths_.erase(paths_.begin());
      traceCacheEvent(telemetry::TraceEvent::kCacheEvict, 1);
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      lastUsed_.try_emplace(net::LinkId{path[i], path[i + 1]}, now);
    }
    net::RouteProvenance prov;
    if (origin != net::RouteOrigin::kNone) {
      prov = net::RouteProvenance::next(origin, owner_, now, path.size());
    }
    paths_.push_back(CachedPath{std::move(path), now, prov});
    traceCacheInsert(prov, 1);
    return true;
  }

  std::optional<RouteLookup> lookup(
      net::NodeId dest, const LinkFilter& acceptLink = {}) const override {
    const CachedPath* best = nullptr;
    std::size_t bestLen = std::numeric_limits<std::size_t>::max();
    for (const CachedPath& p : paths_) {
      auto it = std::find(p.hops.begin(), p.hops.end(), dest);
      if (it == p.hops.end() || it == p.hops.begin()) continue;
      const auto len = static_cast<std::size_t>(it - p.hops.begin()) + 1;
      if (len > bestLen) continue;
      if (acceptLink) {
        bool ok = true;
        for (std::size_t i = 0; i + 1 < len; ++i) {
          if (!acceptLink(net::LinkId{p.hops[i], p.hops[i + 1]})) {
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

  bool containsLink(net::LinkId link) const override {
    return std::any_of(paths_.begin(), paths_.end(), [&](const CachedPath& p) {
      return net::routeContainsLink(p.hops, link);
    });
  }

  std::vector<sim::Time> removeLink(net::LinkId link, sim::Time) override {
    std::vector<sim::Time> affected;
    for (CachedPath& p : paths_) {
      for (std::size_t i = 0; i + 1 < p.hops.size(); ++i) {
        if (p.hops[i] == link.from && p.hops[i + 1] == link.to) {
          affected.push_back(p.addedAt);
          p.hops.resize(i + 1);
          break;
        }
      }
    }
    lastUsed_.erase(link);
    dropUnroutable();
    return affected;
  }

  void markLinksUsed(std::span<const net::NodeId> route,
                     sim::Time now) override {
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
      auto it = lastUsed_.find(net::LinkId{route[i], route[i + 1]});
      if (it != lastUsed_.end()) it->second = now;
    }
  }

  std::size_t expireUnusedSince(sim::Time cutoff) override {
    std::size_t pruned = 0;
    for (CachedPath& p : paths_) {
      for (std::size_t i = 0; i + 1 < p.hops.size(); ++i) {
        const net::LinkId link{p.hops[i], p.hops[i + 1]};
        auto it = lastUsed_.find(link);
        const sim::Time used = it != lastUsed_.end()
                                   ? std::max(it->second, p.addedAt)
                                   : p.addedAt;
        if (used < cutoff) {
          pruned += p.hops.size() - (i + 1);
          p.hops.resize(i + 1);
          break;
        }
      }
    }
    dropUnroutable();
    if (pruned > 0) {
      traceCacheEvent(telemetry::TraceEvent::kCacheExpire,
                      static_cast<std::int64_t>(pruned));
    }
    return pruned;
  }

  void clear() override {
    paths_.clear();
    lastUsed_.clear();
  }

  void forEachRoute(const RouteVisitor& visit) const override {
    for (const CachedPath& p : paths_) visit(p.hops);
  }

 private:
  void dropUnroutable() {
    std::erase_if(paths_,
                  [](const CachedPath& p) { return p.hops.size() < 2; });
  }

  net::NodeId owner_;
  std::size_t capacity_;
  std::vector<CachedPath> paths_;
  std::unordered_map<net::LinkId, sim::Time, net::LinkIdHash> lastUsed_;
};

class LinkCache final : public RouteCacheBase {
 public:
  LinkCache(net::NodeId owner, std::size_t capacity)
      : owner_(owner), capacity_(capacity) {}

  bool insert(std::span<const net::NodeId> hops, sim::Time now,
              net::RouteOrigin origin = net::RouteOrigin::kNone) override {
    if (hops.size() < 2 || hops.front() != owner_) return false;
    if (net::routeHasDuplicates(hops)) return false;
    net::RouteProvenance prov;
    std::int64_t newLinks = 0;
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      const net::LinkId link{hops[i], hops[i + 1]};
      auto [it, inserted] = links_.try_emplace(link, LinkInfo{now, now, {}});
      if (inserted) {
        if (prov.id == 0 && origin != net::RouteOrigin::kNone) {
          prov = net::RouteProvenance::next(origin, owner_, now, hops.size());
        }
        it->second.prov = prov;
        ++newLinks;
        adj_[link.from].push_back(link.to);
        if (links_.size() > capacity_) evictOldest();
      }
    }
    if (newLinks > 0) traceCacheInsert(prov, newLinks);
    return true;
  }

  std::optional<RouteLookup> lookup(
      net::NodeId dest, const LinkFilter& acceptLink = {}) const override {
    if (dest == owner_) return std::nullopt;
    std::unordered_map<net::NodeId, net::NodeId> parent;
    std::deque<net::NodeId> frontier{owner_};
    parent.emplace(owner_, owner_);
    while (!frontier.empty()) {
      const net::NodeId u = frontier.front();
      frontier.pop_front();
      if (u == dest) break;
      auto it = adj_.find(u);
      if (it == adj_.end()) continue;
      for (net::NodeId v : it->second) {
        if (parent.contains(v)) continue;
        if (acceptLink && !acceptLink(net::LinkId{u, v})) continue;
        parent.emplace(v, u);
        frontier.push_back(v);
      }
    }
    if (!parent.contains(dest)) return std::nullopt;
    std::vector<net::NodeId> route{dest};
    for (net::NodeId n = dest; n != owner_; n = parent.at(n)) {
      route.push_back(parent.at(n));
    }
    std::reverse(route.begin(), route.end());
    RouteLookup out{std::move(route), {}};
    for (std::size_t i = 0; i + 1 < out.hops.size(); ++i) {
      auto it = links_.find(net::LinkId{out.hops[i], out.hops[i + 1]});
      if (it == links_.end() || it->second.prov.id == 0) continue;
      const net::RouteProvenance& p = it->second.prov;
      if (out.prov.id == 0 || p.bornAt < out.prov.bornAt ||
          (p.bornAt == out.prov.bornAt && p.id < out.prov.id)) {
        out.prov = p;
      }
    }
    return out;
  }

  bool containsLink(net::LinkId link) const override {
    return links_.contains(link);
  }

  std::vector<sim::Time> removeLink(net::LinkId link, sim::Time) override {
    auto it = links_.find(link);
    if (it == links_.end()) return {};
    std::vector<sim::Time> affected{it->second.addedAt};
    links_.erase(it);
    dropAdjacency(link);
    return affected;
  }

  void markLinksUsed(std::span<const net::NodeId> route,
                     sim::Time now) override {
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
      auto it = links_.find(net::LinkId{route[i], route[i + 1]});
      if (it != links_.end()) it->second.lastUsed = now;
    }
  }

  std::size_t expireUnusedSince(sim::Time cutoff) override {
    std::size_t pruned = 0;
    for (auto it = links_.begin(); it != links_.end();) {
      if (it->second.lastUsed < cutoff) {
        dropAdjacency(it->first);
        it = links_.erase(it);
        ++pruned;
      } else {
        ++it;
      }
    }
    if (pruned > 0) {
      traceCacheEvent(telemetry::TraceEvent::kCacheExpire,
                      static_cast<std::int64_t>(pruned));
    }
    return pruned;
  }

  void clear() override {
    links_.clear();
    adj_.clear();
  }
  std::size_t size() const override { return links_.size(); }

  void forEachRoute(const RouteVisitor& visit) const override {
    for (const auto& [link, info] : links_) {
      const net::NodeId hops[2] = {link.from, link.to};
      visit(hops);
    }
  }

 private:
  struct LinkInfo {
    sim::Time addedAt;
    sim::Time lastUsed;
    net::RouteProvenance prov{};
  };

  void dropAdjacency(net::LinkId link) {
    auto adjIt = adj_.find(link.from);
    if (adjIt != adj_.end()) {
      std::erase(adjIt->second, link.to);
      if (adjIt->second.empty()) adj_.erase(adjIt);
    }
  }

  void evictOldest() {
    auto oldest = links_.end();
    sim::Time oldestTime = sim::Time::max();
    for (auto it = links_.begin(); it != links_.end(); ++it) {
      if (it->second.addedAt < oldestTime) {
        oldestTime = it->second.addedAt;
        oldest = it;
      }
    }
    if (oldest == links_.end()) return;
    const net::LinkId victim = oldest->first;
    links_.erase(oldest);
    traceCacheEvent(telemetry::TraceEvent::kCacheEvict, 1);
    dropAdjacency(victim);
  }

  net::NodeId owner_;
  std::size_t capacity_;
  std::map<net::LinkId, LinkInfo> links_;
  std::unordered_map<net::NodeId, std::vector<net::NodeId>> adj_;
};

class NegativeCache {
 public:
  NegativeCache(std::size_t capacity, sim::Time ttl)
      : capacity_(capacity), ttl_(ttl) {}

  void insert(net::LinkId link, sim::Time now,
              net::RouteOrigin origin = net::RouteOrigin::kNone) {
    expire(now);
    auto it = expiry_.find(link);
    if (it != expiry_.end()) {
      it->second.expiresAt = now + ttl_;
      auto pos = std::find(fifo_.begin(), fifo_.end(), link);
      if (pos != fifo_.end()) fifo_.erase(pos);
      fifo_.push_back(link);
      return;
    }
    if (expiry_.size() >= capacity_ && !fifo_.empty()) {
      expiry_.erase(fifo_.front());
      fifo_.pop_front();
    }
    net::RouteProvenance prov;
    if (origin != net::RouteOrigin::kNone) {
      prov = net::RouteProvenance::next(origin, traceOwner_, now, 2);
    }
    expiry_.emplace(link, Entry{now + ttl_, prov});
    fifo_.push_back(link);
    trace(telemetry::TraceEvent::kNegCacheInsert, link, prov);
  }

  bool contains(net::LinkId link, sim::Time now) {
    auto it = expiry_.find(link);
    if (it == expiry_.end()) return false;
    if (it->second.expiresAt <= now) {
      const net::RouteProvenance prov = it->second.prov;
      expiry_.erase(it);
      auto pos = std::find(fifo_.begin(), fifo_.end(), link);
      if (pos != fifo_.end()) fifo_.erase(pos);
      trace(telemetry::TraceEvent::kNegCacheExpire, link, prov);
      return false;
    }
    return true;
  }

  bool peek(net::LinkId link, sim::Time now) const {
    const auto it = expiry_.find(link);
    return it != expiry_.end() && it->second.expiresAt > now;
  }

  net::RouteProvenance provenance(net::LinkId link, sim::Time now) const {
    const auto it = expiry_.find(link);
    if (it == expiry_.end() || it->second.expiresAt <= now) return {};
    return it->second.prov;
  }

  void erase(net::LinkId link) {
    if (expiry_.erase(link) > 0) {
      auto pos = std::find(fifo_.begin(), fifo_.end(), link);
      if (pos != fifo_.end()) fifo_.erase(pos);
    }
  }

  void clear() {
    expiry_.clear();
    fifo_.clear();
  }

  std::size_t size(sim::Time now) {
    expire(now);
    return expiry_.size();
  }
  std::size_t rawSize() const { return expiry_.size(); }

  void bindTracer(telemetry::Tracer* tracer, net::NodeId owner) {
    tracer_ = tracer;
    traceOwner_ = owner;
  }

 private:
  struct Entry {
    sim::Time expiresAt;
    net::RouteProvenance prov{};
  };

  void expire(sim::Time now) {
    while (!fifo_.empty()) {
      auto it = expiry_.find(fifo_.front());
      if (it == expiry_.end()) {
        fifo_.pop_front();
        continue;
      }
      if (it->second.expiresAt > now) break;
      const net::LinkId gone = it->first;
      const net::RouteProvenance prov = it->second.prov;
      expiry_.erase(it);
      fifo_.pop_front();
      trace(telemetry::TraceEvent::kNegCacheExpire, gone, prov);
    }
  }

  void trace(telemetry::TraceEvent event, net::LinkId link,
             const net::RouteProvenance& prov) {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    telemetry::TraceRecord r;
    r.at = tracer_->now();
    r.event = event;
    r.node = traceOwner_;
    r.src = link.from;
    r.dst = link.to;
    r.prov = prov;
    tracer_->emit(r);
  }

  telemetry::Tracer* tracer_ = nullptr;
  net::NodeId traceOwner_ = 0;
  std::size_t capacity_;
  sim::Time ttl_;
  std::unordered_map<net::LinkId, Entry, net::LinkIdHash> expiry_;
  std::deque<net::LinkId> fifo_;
};

}  // namespace oracle

namespace {

using net::LinkId;
using net::NodeId;
using sim::Time;

/// Appends every record to the shared log, so trace records interleave
/// with the operation results in the order they happened.
class LogSink final : public telemetry::TraceSink {
 public:
  explicit LogSink(std::vector<std::string>& log) : log_(log) {}
  void record(const telemetry::TraceRecord& r) override {
    log_.push_back("trace " + telemetry::toJson(r));
  }

 private:
  std::vector<std::string>& log_;
};

enum class OpKind {
  kInsert,
  kLookup,
  kLookupFiltered,
  kRemoveLink,
  kMarkUsed,
  kExpire,
  kContainsLink,
  kNegInsert,
  kNegContains,
  kNegErase,
  kNegSize,
  kSnapshot,
  kClear,
};

struct Op {
  OpKind kind;
  Time at;  // never decreases along a sequence
  std::vector<NodeId> route;
  LinkId link;
  NodeId dest = 0;
  Time cutoff;
  net::RouteOrigin origin = net::RouteOrigin::kNone;
};

constexpr NodeId kOwner = 0;
constexpr int kNodes = 12;

/// A node id from 0..ids-1. Past kNodes ids, three draws in four come from
/// twelve ids (multiples of 64, plus one) that share two bits of
/// RouteCache's node mask, so the mask passes paths the exact scan must
/// reject, and paths still overlap often enough to match.
NodeId randomNode(sim::Rng& rng, int ids) {
  if (ids <= kNodes || rng.bernoulli(0.25)) {
    return static_cast<NodeId>(rng.uniformInt(0, ids - 1));
  }
  return static_cast<NodeId>(64 * rng.uniformInt(0, 5) + rng.uniformInt(0, 1));
}

std::vector<NodeId> randomRoute(sim::Rng& rng, bool fromOwner, int ids) {
  std::vector<NodeId> route;
  route.push_back(fromOwner ? kOwner : randomNode(rng, ids));
  const auto len = rng.uniformInt(1, 6);
  for (std::int64_t i = 0; i < len; ++i) {
    NodeId next;
    do {
      next = randomNode(rng, ids);
    } while (std::find(route.begin(), route.end(), next) != route.end());
    route.push_back(next);
  }
  // Occasionally invalid: a loop, or a route that does not start here.
  if (rng.bernoulli(0.03)) route.push_back(route[1]);
  if (rng.bernoulli(0.03)) route.front() = static_cast<NodeId>(ids - 1);
  return route;
}

LinkId randomLink(sim::Rng& rng, int ids) {
  return LinkId{randomNode(rng, ids), randomNode(rng, ids)};
}

std::vector<Op> randomOps(std::uint64_t seed, std::size_t n, int ids) {
  sim::Rng rng(seed);
  std::vector<Op> ops;
  Time now = Time::zero();
  std::vector<std::vector<NodeId>> inserted;
  // Routes marked while (most likely) no stored path holds them, queued to
  // be inserted later: their marks predate the paths.
  std::vector<std::vector<NodeId>> markedAhead;
  for (std::size_t i = 0; i < n; ++i) {
    // Steps of 0 make equal timestamps (eviction and lookup tie-breaks).
    now += Time::millis(rng.bernoulli(0.3) ? 0 : rng.uniformInt(1, 400));
    Op op;
    op.at = now;
    const double pick = rng.uniform();
    if (pick < 0.30) {
      op.kind = OpKind::kInsert;
      if (!markedAhead.empty() && rng.bernoulli(0.2)) {
        op.route = std::move(markedAhead.back());
        markedAhead.pop_back();
      } else {
        op.route = randomRoute(rng, true, ids);
      }
      op.origin = static_cast<net::RouteOrigin>(rng.uniformInt(0, 8));
      inserted.push_back(op.route);
    } else if (pick < 0.42) {
      op.kind = OpKind::kLookup;
      op.dest = randomNode(rng, ids);
    } else if (pick < 0.56) {
      op.kind = OpKind::kLookupFiltered;
      op.dest = randomNode(rng, ids);
    } else if (pick < 0.64) {
      op.kind = OpKind::kRemoveLink;
      // Mostly a link some insert used, so removals actually cut paths.
      if (!inserted.empty() && rng.bernoulli(0.8)) {
        const auto& r = inserted[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(inserted.size()) - 1))];
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(r.size()) - 2));
        op.link = LinkId{r[j], r[j + 1]};
      } else {
        op.link = randomLink(rng, ids);
      }
    } else if (pick < 0.72) {
      op.kind = OpKind::kMarkUsed;
      op.route = randomRoute(rng, rng.bernoulli(0.5), ids);
      if (rng.bernoulli(0.25)) markedAhead.push_back(op.route);
    } else if (pick < 0.76) {
      op.kind = OpKind::kExpire;
      op.cutoff = now - Time::millis(rng.uniformInt(0, 3000));
    } else if (pick < 0.79) {
      op.kind = OpKind::kContainsLink;
      // Half the time a link some insert used, so the answer varies.
      if (!inserted.empty() && rng.bernoulli(0.5)) {
        const auto& r = inserted[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(inserted.size()) - 1))];
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(r.size()) - 2));
        op.link = LinkId{r[j], r[j + 1]};
      } else {
        op.link = randomLink(rng, ids);
      }
    } else if (pick < 0.88) {
      op.kind = OpKind::kNegInsert;
      op.link = randomLink(rng, ids);
      op.origin = rng.bernoulli(0.2) ? net::RouteOrigin::kNone
                                     : net::RouteOrigin::kMacFeedback;
    } else if (pick < 0.92) {
      op.kind = OpKind::kNegContains;
      op.link = randomLink(rng, ids);
    } else if (pick < 0.95) {
      op.kind = OpKind::kNegErase;
      op.link = randomLink(rng, ids);
    } else if (pick < 0.97) {
      op.kind = OpKind::kNegSize;
    } else if (pick < 0.995) {
      op.kind = OpKind::kSnapshot;
    } else {
      op.kind = OpKind::kClear;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::string str(const std::vector<NodeId>& hops) {
  std::ostringstream s;
  for (NodeId n : hops) s << n << ' ';
  return s.str();
}

std::string str(const net::RouteProvenance& p) {
  std::ostringstream s;
  s << p.id << '/' << static_cast<int>(p.origin) << '/' << p.insertedBy << '/'
    << p.bornAt.ns() << '/' << static_cast<int>(p.hopsAtInsert);
  return s.str();
}

std::string str(const std::optional<RouteLookup>& l) {
  return l ? str(l->hops) + "prov " + str(l->prov) : "none";
}

std::string str(const std::vector<Time>& times) {
  std::ostringstream s;
  for (Time t : times) s << t.ns() << ' ';
  return s.str();
}

/// Runs `ops` against one set of caches and returns the log of everything
/// observable: results, link-filter calls and trace records, in order.
template <class PathCacheT, class LinkCacheT, class NegCacheT>
std::vector<std::string> run(const std::vector<Op>& ops,
                             std::size_t pathCapacity,
                             std::size_t linkCapacity,
                             std::size_t negCapacity) {
  net::RouteProvenance::resetIdCounter();
  std::vector<std::string> log;
  LogSink sink(log);
  telemetry::Tracer tracer;
  tracer.addSink(&sink);
  PathCacheT paths(kOwner, pathCapacity);
  LinkCacheT links(kOwner, linkCapacity);
  NegCacheT neg(negCapacity, Time::seconds(2));
  paths.bindTracer(&tracer, kOwner);
  links.bindTracer(&tracer, kOwner);
  neg.bindTracer(&tracer, kOwner);

  const auto both = [&](const auto& body) {
    log.emplace_back("path:");
    body(static_cast<RouteCacheBase&>(paths));
    log.emplace_back("link:");
    body(static_cast<RouteCacheBase&>(links));
  };
  const auto snapshot = [&](RouteCacheBase& c) {
    std::string s = "routes " + std::to_string(c.size()) + ": ";
    c.forEachRoute([&](std::span<const NodeId> hops) {
      s += str(std::vector<NodeId>(hops.begin(), hops.end())) + "| ";
    });
    log.push_back(s);
  };

  for (const Op& op : ops) {
    const Time now = op.at;
    switch (op.kind) {
      case OpKind::kInsert:
        both([&](RouteCacheBase& c) {
          log.push_back("insert " +
                        std::to_string(c.insert(op.route, now, op.origin)));
        });
        break;
      case OpKind::kLookup:
        both([&](RouteCacheBase& c) {
          log.push_back("lookup " + str(c.lookup(op.dest)));
        });
        break;
      case OpKind::kLookupFiltered:
        // The negative cache as the filter, as DsrAgent::lookupRoute does:
        // contains() may expire entries and trace, so the exact sequence of
        // calls is observable.
        both([&](RouteCacheBase& c) {
          const auto r = c.lookup(op.dest, [&](LinkId l) {
            const bool bad = neg.contains(l, now);
            log.push_back("filter " + std::to_string(l.from) + ">" +
                          std::to_string(l.to) + " " + std::to_string(bad));
            return !bad;
          });
          log.push_back("lookup* " + str(r));
        });
        break;
      case OpKind::kRemoveLink:
        both([&](RouteCacheBase& c) {
          log.push_back("remove " + str(c.removeLink(op.link, now)));
        });
        break;
      case OpKind::kMarkUsed:
        both([&](RouteCacheBase& c) { c.markLinksUsed(op.route, now); });
        break;
      case OpKind::kExpire:
        both([&](RouteCacheBase& c) {
          log.push_back("expire " +
                        std::to_string(c.expireUnusedSince(op.cutoff)));
        });
        break;
      case OpKind::kContainsLink:
        both([&](RouteCacheBase& c) {
          log.push_back("has " + std::to_string(c.containsLink(op.link)));
        });
        break;
      case OpKind::kNegInsert:
        neg.insert(op.link, now, op.origin);
        break;
      case OpKind::kNegContains:
        log.push_back("neg has " + std::to_string(neg.contains(op.link, now)) +
                      " peek " + std::to_string(neg.peek(op.link, now)) +
                      " prov " + str(neg.provenance(op.link, now)));
        break;
      case OpKind::kNegErase:
        neg.erase(op.link);
        break;
      case OpKind::kNegSize:
        log.push_back("neg raw " + std::to_string(neg.rawSize()) + " size " +
                      std::to_string(neg.size(now)));
        break;
      case OpKind::kSnapshot: {
        both(snapshot);
        std::string s = "fifo ";
        for (const auto& p : paths.paths()) {
          s += str(p.hops) + "@" + std::to_string(p.addedAt.ns()) + " " +
               str(p.prov) + " | ";
        }
        log.push_back(s);
        break;
      }
      case OpKind::kClear:
        both([&](RouteCacheBase& c) { c.clear(); });
        neg.clear();
        break;
    }
    log.push_back("sizes " + std::to_string(paths.size()) + " " +
                  std::to_string(links.size()) + " " +
                  std::to_string(neg.rawSize()));
  }
  both(snapshot);
  return log;
}

void expectSameLog(const std::vector<std::string>& want,
                   const std::vector<std::string>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "first difference at log line " << i;
  }
}

struct Capacities {
  std::size_t path;
  std::size_t link;
  std::size_t neg;
};

/// Node ids are drawn from 0..ids-1.
void expectOracleMatch(const Capacities& cap, int ids) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Op> ops = randomOps(seed, 600, ids);
    const auto want =
        run<oracle::RouteCache, oracle::LinkCache, oracle::NegativeCache>(
            ops, cap.path, cap.link, cap.neg);
    const auto got = run<RouteCache, LinkCache, NegativeCache>(
        ops, cap.path, cap.link, cap.neg);
    expectSameLog(want, got);
  }
}

class CacheOracleTest : public ::testing::TestWithParam<Capacities> {};

TEST_P(CacheOracleTest, RandomOpSequencesMatchTheOriginalCaches) {
  expectOracleMatch(GetParam(), kNodes);
}

// Ids up to 399, where RouteCache's 64-bit node mask aliases.
class WideIdCacheOracleTest : public ::testing::TestWithParam<Capacities> {};

TEST_P(WideIdCacheOracleTest, RandomOpSequencesMatchTheOriginalCaches) {
  expectOracleMatch(GetParam(), 400);
}

// Small capacities overflow constantly; large ones never do.
INSTANTIATE_TEST_SUITE_P(Capacities, CacheOracleTest,
                         ::testing::Values(Capacities{1, 1, 1},
                                           Capacities{4, 6, 3},
                                           Capacities{16, 24, 8},
                                           Capacities{512, 512, 64}));
INSTANTIATE_TEST_SUITE_P(Capacities, WideIdCacheOracleTest,
                         ::testing::Values(Capacities{4, 6, 3},
                                           Capacities{16, 24, 8},
                                           Capacities{512, 512, 64}));

// Lengths on both sides of the pairwise / sorted-copy switch (16) and, in
// a few trials, past the stack copy (256); ids across the full 32-bit
// range, drawn from a per-trial pool sized so that most routes, but not
// all, repeat a node.
TEST(RouteHasDuplicatesTest, MatchesASet) {
  sim::Rng rng(3);
  for (int trial = 0; trial < 5000; ++trial) {
    const std::int64_t maxLen = trial % 50 == 0 ? 300 : 64;
    std::vector<NodeId> hops(
        static_cast<std::size_t>(rng.uniformInt(0, maxLen)));
    std::vector<NodeId> pool(hops.size() * hops.size() / 2 + 1);
    for (NodeId& n : pool) {
      n = static_cast<NodeId>(
          rng.uniformInt(0, std::numeric_limits<NodeId>::max()));
    }
    for (NodeId& n : hops) {
      n = pool[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
    }
    const std::set<NodeId> distinct(hops.begin(), hops.end());
    EXPECT_EQ(net::routeHasDuplicates(hops), distinct.size() != hops.size())
        << str(hops);
  }
}

TEST(LinkMapTest, EraseIfMatchesAMap) {
  sim::Rng rng(7);
  LinkMap<int> map;
  std::map<LinkId, int> want;
  const auto randomKey = [&] {
    return LinkId{static_cast<NodeId>(rng.uniformInt(0, 9)),
                  static_cast<NodeId>(rng.uniformInt(0, 9))};
  };
  const auto expectSameEntries = [&] {
    for (NodeId from = 0; from < 10; ++from) {
      for (NodeId to = 0; to < 10; ++to) {
        const auto it = want.find(LinkId{from, to});
        const int* got = map.find(LinkId{from, to});
        ASSERT_EQ(got != nullptr, it != want.end());
        if (got != nullptr) {
          EXPECT_EQ(*got, it->second);
        }
      }
    }
  };
  for (int step = 0; step < 20000; ++step) {
    const double pick = rng.uniform();
    if (pick < 0.6) {
      const LinkId key = randomKey();
      const int value = static_cast<int>(rng.uniformInt(0, 99));
      *map.tryEmplace(key, value).first = value;
      want[key] = value;
    } else if (pick < 0.9) {
      const LinkId key = randomKey();
      EXPECT_EQ(map.erase(key), want.erase(key) == 1);
    } else {
      // Erasing inside probe runs, including ones that wrap around the
      // bucket array, shifts later entries back into visited buckets.
      const int below = static_cast<int>(rng.uniformInt(0, 99));
      map.eraseIf([below](int v) { return v < below; });
      std::erase_if(want, [below](const auto& e) { return e.second < below; });
    }
    ASSERT_EQ(map.size(), want.size()) << "step " << step;
    if (step % 100 == 0) expectSameEntries();
  }
  expectSameEntries();
}

// The mark table holds a link only while its last mark is at or after the
// last expiry cutoff; inserts, evictions and truncations never touch it.
TEST(RouteCacheBoundTest, ExpiryPurgesEveryMarkOlderThanItsCutoff) {
  sim::Rng rng(5);
  RouteCache cache(kOwner, 128);
  std::map<LinkId, Time> lastMark;
  Time now = Time::zero();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 200; ++i) {
      now += Time::millis(rng.uniformInt(0, 20));
      // Fresh routes over a wide id space: most marked links are new, and
      // most are held by no stored path.
      std::vector<NodeId> route{kOwner};
      const auto len = rng.uniformInt(1, 8);
      while (static_cast<std::int64_t>(route.size()) <= len) {
        const auto next = static_cast<NodeId>(rng.uniformInt(1, 100000));
        if (std::find(route.begin(), route.end(), next) == route.end()) {
          route.push_back(next);
        }
      }
      if (rng.bernoulli(0.5)) cache.insert(route, now);
      if (rng.bernoulli(0.5)) {
        cache.markLinksUsed(route, now);
        for (std::size_t j = 0; j + 1 < route.size(); ++j) {
          lastMark[LinkId{route[j], route[j + 1]}] = now;
        }
      }
    }
    EXPECT_EQ(cache.markTableSize(), lastMark.size());
    // Cutoffs move both ways, as the adaptive timeout's do.
    const Time cutoff = now - Time::millis(rng.uniformInt(0, 3000));
    cache.expireUnusedSince(cutoff);
    std::erase_if(lastMark, [&](const auto& m) { return m.second < cutoff; });
    EXPECT_EQ(cache.markTableSize(), lastMark.size()) << "round " << round;
  }
  cache.clear();
  EXPECT_EQ(cache.markTableSize(), 0u);
}

TEST(RouteCacheBoundTest, InsertsAndRemovalsRecordNoMarks) {
  sim::Rng rng(6);
  RouteCache cache(kOwner, 128);
  for (int i = 0; i < 10000; ++i) {
    std::vector<NodeId> route{kOwner};
    const auto len = rng.uniformInt(1, 8);
    while (static_cast<std::int64_t>(route.size()) <= len) {
      const auto next = static_cast<NodeId>(rng.uniformInt(1, 400));
      if (std::find(route.begin(), route.end(), next) == route.end()) {
        route.push_back(next);
      }
    }
    cache.insert(route, Time::millis(i));
    if (i % 10 == 0) {
      cache.removeLink(LinkId{route[0], route[1]}, Time::millis(i));
    }
  }
  EXPECT_EQ(cache.size(), 128u);
  EXPECT_EQ(cache.markTableSize(), 0u);
}

}  // namespace
}  // namespace manet::core
