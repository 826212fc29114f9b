// Abstract route-cache structure.
//
// The paper (footnote 1, and the contrast with Hu & Johnson's MobiCom'00
// study) distinguishes two cache organizations:
//   * PATH caches — a set of complete source routes, each starting at the
//     caching node (what the CMU ns-2 DSR and this paper use); and
//   * LINK caches — individual links assembled into a graph, with routes
//     found by shortest-path search.
// Both are implemented here behind one interface so every caching technique
// (expiry, wider errors, negative caches) composes with either structure;
// the ablation_knobs bench plan compares them.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/time.h"
#include "src/telemetry/trace.h"

namespace manet::core {

/// A cache lookup result: the route plus the provenance of the cache entry
/// it came from. For path caches this is the stored path's birth record; for
/// link caches — where a route composes links learned at different times —
/// it is the provenance of the *oldest* constituent link, i.e. the entry
/// most likely to be stale and therefore the one a later failure should be
/// attributed to.
struct RouteLookup {
  std::vector<net::NodeId> hops;
  net::RouteProvenance prov{};
};

class RouteCacheBase {
 public:
  /// Predicate over links; lookups must not return a route using a
  /// rejected link (negative-cache mutual exclusion).
  using LinkFilter = std::function<bool(net::LinkId)>;

  virtual ~RouteCacheBase() = default;

  /// Learn a route (hops.front() must be the owning node, length >= 2,
  /// loop-free). Returns true if any information was stored/refreshed.
  /// `origin` names the protocol event that taught us the route; when a new
  /// entry is actually stored (and origin != kNone) the cache mints a
  /// RouteProvenance for it, so later lookups, stale uses and drops can be
  /// joined back to this insertion. Re-learning an existing entry keeps its
  /// original provenance (matching the first-entered addedAt semantics).
  virtual bool insert(std::span<const net::NodeId> hops, sim::Time now,
                      net::RouteOrigin origin = net::RouteOrigin::kNone) = 0;

  /// Best-known route from the owner to `dest` with the provenance of the
  /// entry that produced it, or nullopt.
  virtual std::optional<RouteLookup> lookup(
      net::NodeId dest, const LinkFilter& acceptLink = {}) const = 0;

  /// Best-known route from the owner to `dest`, or nullopt. Convenience
  /// wrapper over lookup() for callers that don't need provenance.
  std::optional<std::vector<net::NodeId>> findRoute(
      net::NodeId dest, const LinkFilter& acceptLink = {}) const {
    auto l = lookup(dest, acceptLink);
    if (!l) return std::nullopt;
    return std::move(l->hops);
  }

  /// True if the directed link is part of any cached information.
  virtual bool containsLink(net::LinkId link) const = 0;

  /// Remove a broken link. Returns the addedAt times of the affected
  /// cached routes/links — route-lifetime samples for the adaptive timeout.
  virtual std::vector<sim::Time> removeLink(net::LinkId link,
                                            sim::Time now) = 0;

  /// Refresh last-used stamps for every link of `route` (timer-based
  /// expiry bookkeeping).
  virtual void markLinksUsed(std::span<const net::NodeId> route,
                             sim::Time now) = 0;

  /// Timer-based expiry: drop link state unused since `cutoff`. Returns
  /// the number of links pruned.
  virtual std::size_t expireUnusedSince(sim::Time cutoff) = 0;

  virtual void clear() = 0;
  /// Number of stored entries (paths or links, structure-dependent).
  virtual std::size_t size() const = 0;

  /// Visit every cached route: path caches yield stored paths, link caches
  /// yield individual links as two-node routes. Used by the telemetry
  /// sampler (invalid-entry fraction via the link oracle) and inspectors.
  using RouteVisitor = std::function<void(std::span<const net::NodeId>)>;
  virtual void forEachRoute(const RouteVisitor& visit) const = 0;

  /// Observability: emit evict/expire records through `tracer` (may be
  /// null). `owner` stamps the records' node id.
  void bindTracer(telemetry::Tracer* tracer, net::NodeId owner) {
    tracer_ = tracer;
    traceOwner_ = owner;
  }

 protected:
  /// Emit a cache-scoped trace record if tracing is live.
  void traceCacheEvent(telemetry::TraceEvent event, std::int64_t detail) {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    telemetry::TraceRecord r;
    r.at = tracer_->now();
    r.event = event;
    r.node = traceOwner_;
    r.detail = detail;
    tracer_->emit(r);
  }

  /// Emit a kCacheInsert record carrying the new entry's provenance.
  /// `detail` is the number of entries the insertion created.
  void traceCacheInsert(const net::RouteProvenance& prov,
                        std::int64_t detail) {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    telemetry::TraceRecord r;
    r.at = tracer_->now();
    r.event = telemetry::TraceEvent::kCacheInsert;
    r.node = traceOwner_;
    r.detail = detail;
    r.prov = prov;
    tracer_->emit(r);
  }

  telemetry::Tracer* tracer_ = nullptr;
  net::NodeId traceOwner_ = 0;
};

enum class CacheStructure { kPath, kLink };

const char* toString(CacheStructure s);

}  // namespace manet::core
