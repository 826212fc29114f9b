// Allocation-site observability: count / bytes / high-water tallies at the
// simulator's three hot allocation sites (packets, scheduler events, trace
// records), feeding the arena/pool sizing decisions of the engine overhaul
// (ROADMAP item 1).
//
// Contract (same as the profiler's):
//  * Zero overhead when off: every record path is one thread-local load plus
//    one null check; no tracker installed means no work at all.
//  * Zero allocations when on: fixed-size per-site arrays only.
//  * Deterministic: counters are driven purely by simulation behaviour
//    (allocation order), never by the wall clock, so two runs of the same
//    seed produce identical tallies.
//
// The tracker is installed per thread by the owning Profiler (parallel sweep
// workers each run their own scenario, profiler and tracker), and
// uninstalled by the Profiler destructor before the network tears down, so
// teardown-time releases degrade to no-ops instead of touching a dead
// tracker.
#pragma once

#include <array>
#include <cstdint>

#include "src/util/thread_annotations.h"

namespace manet::prof {

/// The three allocation sites the future arenas will replace.
enum class AllocSite : std::uint8_t {
  kPacket,       // net::Packet::make / clone (shared_ptr control + payload)
  kEvent,        // sim::Scheduler heap entries
  kTraceRecord,  // telemetry::Tracer::emit record copies (+ note strings)
};
inline constexpr std::size_t kNumAllocSites = 3;
const char* toString(AllocSite s);

/// Tallies for one allocation site.
struct AllocSiteStats {
  std::uint64_t count = 0;      // total allocations observed
  std::uint64_t bytes = 0;      // total bytes (unit size x count + extras)
  std::uint64_t live = 0;       // currently outstanding (count - releases)
  std::uint64_t highWater = 0;  // peak outstanding
};

/// Per-thread allocation tally. Sites record through the canonical guard
///   if (auto* a = prof::AllocTracker::current()) a->recordAlloc(...);
/// which the `hotspot-guard` lint rule enforces at every call site.
class AllocTracker {
 public:
  static AllocTracker* current() { return t_current; }

  /// One allocation at `s`: unit bytes (set by the installer, which knows
  /// the concrete types) plus `extraBytes` for variable-size tails.
  void recordAlloc(AllocSite s, std::uint64_t extraBytes = 0) {
    AllocSiteStats& st = sites_[static_cast<std::size_t>(s)];
    ++st.count;
    st.bytes += unitBytes_[static_cast<std::size_t>(s)] + extraBytes;
    ++st.live;
    if (st.live > st.highWater) st.highWater = st.live;
  }

  /// One release at `s`. Saturates at zero: stack-constructed objects that
  /// were never recorded (tracker installed mid-lifetime) must not wrap.
  void releaseAlloc(AllocSite s) {
    AllocSiteStats& st = sites_[static_cast<std::size_t>(s)];
    if (st.live > 0) --st.live;
  }

  /// Unit size per site, registered once at install time by the layer that
  /// can see the concrete types (prof cannot include net/sim/telemetry).
  void setUnitBytes(AllocSite s, std::uint64_t bytes) {
    unitBytes_[static_cast<std::size_t>(s)] = bytes;
  }

  const AllocSiteStats& site(AllocSite s) const {
    return sites_[static_cast<std::size_t>(s)];
  }
  const std::array<AllocSiteStats, kNumAllocSites>& sites() const {
    return sites_;
  }

  /// Install/uninstall this thread's tracker (Profiler ctor/dtor only).
  static void install(AllocTracker* t) { t_current = t; }
  static void uninstallIf(AllocTracker* t) {
    if (t_current == t) t_current = nullptr;
  }

 private:
  // One slot per thread, so parallel sweep workers (one scenario and
  // profiler per thread) tally independently. constinit: no dynamic
  // initialisation, so reads need no TLS wrapper call.
  // manet-lint: allow(shared-mutable): thread-local profiler hook, installed
  // per-Scenario by the Profiler ctor and cleared by its dtor; never read by
  // simulation decisions, only written to by observational tallies.
  static inline thread_local constinit AllocTracker* t_current = nullptr;
  std::array<AllocSiteStats, kNumAllocSites> sites_{};
  std::array<std::uint64_t, kNumAllocSites> unitBytes_{};
};

/// Embeddable lifetime hook: a member of this type makes every construction
/// (including copies — e.g. Packet::clone) record one allocation and every
/// destruction release it, giving exact live/high-water tracking without
/// hand-written constructors on the host type.
class AllocToken {
 public:
  explicit AllocToken(AllocSite s) : site_(s) {
    if (AllocTracker* a = AllocTracker::current()) a->recordAlloc(site_);
  }
  AllocToken(const AllocToken& o) : site_(o.site_) {
    if (AllocTracker* a = AllocTracker::current()) a->recordAlloc(site_);
  }
  AllocToken& operator=(const AllocToken&) { return *this; }  // tally is per
                                                              // object, not
                                                              // per value
  ~AllocToken() {
    if (AllocTracker* a = AllocTracker::current()) a->releaseAlloc(site_);
  }

 private:
  AllocSite site_;
};

}  // namespace manet::prof
