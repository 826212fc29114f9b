// DSR configuration: standard optimizations plus the paper's three caching
// techniques, and the named protocol variants the evaluation compares.
#pragma once

#include <cstddef>
#include <string>

#include "src/core/cache_structure.h"
#include "src/sim/time.h"

namespace manet::core {

enum class ExpiryMode { kNone, kStatic, kAdaptive };

struct DsrConfig {
  // ---- standard DSR optimizations (all on in the paper's Base DSR) ----
  bool replyFromCache = true;
  bool salvaging = true;
  int maxSalvageCount = 4;
  bool gratuitousRepair = true;
  bool promiscuousListening = true;  // snoop routes from overheard packets
  bool gratuitousReplies = true;     // automatic route shortening
  bool nonPropagatingRequests = true;

  // ---- technique 1: wider error notification ----
  bool widerErrorNotification = false;

  // ---- technique 2: timer-based route expiry ----
  ExpiryMode expiry = ExpiryMode::kNone;
  sim::Time staticTimeout = sim::Time::seconds(10);
  /// The paper's alpha is unreadable in the scanned text; its stated
  /// calibration target is that adaptive selection should track the optimal
  /// static timeout. alpha = 2 puts the adaptive T right at our substrate's
  /// static optimum (~2 s at pause 0); the ablation_knobs plan sweeps it.
  double adaptiveAlpha = 2.0;
  sim::Time adaptiveMinTimeout = sim::Time::seconds(1);
  sim::Time expiryCheckPeriod = sim::Time::millis(500);  // paper: 0.5 s
  /// If true, originating a packet over a route also refreshes its links'
  /// last-used stamps. The paper's semantics ("seen in a unicast packet
  /// being forwarded by the node") excludes origination — which is what
  /// makes very small timeouts counter-productive (Fig. 1). Ablation knob.
  bool expiryCountsOrigination = false;

  // ---- technique 3: negative caches ----
  bool negativeCache = false;
  std::size_t negCacheCapacity = 64;          // see DESIGN.md
  sim::Time negCacheTtl = sim::Time::seconds(10);  // paper: Nt = 10 s

  // ---- cache and buffering model ----
  /// Path cache capacity. The paper's premise ("stale cache entries will
  /// stay forever") implies effectively-unbounded caches; 128 paths gives
  /// multi-minute residence at our insertion rates while bounding memory.
  std::size_t routeCacheCapacity = 128;
  /// Cache organization: the paper's path cache, or the Hu & Johnson style
  /// graph link cache (compared in the ablation_knobs plan).
  CacheStructure cacheStructure = CacheStructure::kPath;

  // ---- extension (the paper's future work): route freshness tagging ----
  /// Targets stamp replies with a per-target sequence number; nodes track
  /// the freshest stamp seen per destination and refuse to serve or accept
  /// reply routes older than it.
  bool freshnessTagging = false;
  std::size_t sendBufferCapacity = 64;              // paper: 64 packets
  sim::Time sendBufferTimeout = sim::Time::seconds(30);  // paper: 30 s

  // ---- route discovery pacing ----
  sim::Time nonPropRequestTimeout = sim::Time::millis(30);
  sim::Time requestBackoffInitial = sim::Time::millis(500);
  sim::Time requestBackoffMax = sim::Time::seconds(10);
  std::uint8_t maxRequestTtl = 64;
  /// Per-hop random delay before rebroadcasting a flooded request, breaking
  /// the synchronization of the broadcast storm.
  sim::Time broadcastJitterMax = sim::Time::millis(10);
};

/// The protocol variants compared in the paper's evaluation (Figs. 2-4).
enum class Variant {
  kBase,           // DSR with standard optimizations
  kWiderError,     // + wider error notification
  kStaticExpiry,   // + timer-based expiry, fixed timeout
  kAdaptiveExpiry, // + timer-based expiry, adaptive timeout
  kNegCache,       // + negative caches
  kAll,            // + all three techniques ("ALL" in the plots)
};

const char* toString(Variant v);

/// Build the configuration for a named variant. `staticTimeout` only
/// applies to kStaticExpiry.
DsrConfig makeVariantConfig(Variant v,
                            sim::Time staticTimeout = sim::Time::seconds(10));

/// Fail-fast range checks: throws std::invalid_argument with an actionable
/// message on the first out-of-range knob (a zero-capacity cache or a
/// negative timeout would otherwise misbehave silently mid-run).
void validate(const DsrConfig& cfg);

}  // namespace manet::core
