// Self-profiling subsystem: where does simulator wall time go?
//
// The scheduler attributes wall-clock time and dispatch counts to event
// categories (PHY, MAC, routing, mobility, traffic, transport, fault,
// telemetry); subsystems refine the attribution with nested prof::Scope
// guards (e.g. DSR work performed inside a MAC reception event is charged
// to routing, not MAC — scopes track *self* time, excluding children).
// Per-category latency histograms, cache occupancy peaks and peak RSS
// round out the picture, and an optional wall-clock heartbeat reports
// progress (events/sec, sim rate, ETA) on stderr during long sweeps.
//
// Design constraints:
//  * Branch-cheap when off: every hook is a null-pointer / bool check; a
//    disabled profiler performs no clock reads and no allocations.
//  * Zero allocations when on: all state is fixed-size arrays, so the
//    record path never touches the heap (asserted by tests).
//  * Deterministic: the profiler only ever *reads* the wall clock; it never
//    touches simulated time or any simulation RNG stream, so a profiled run
//    is bit-identical to an unprofiled run (asserted by tests).
//  * Testable: the wall clock is injectable (a plain function pointer), so
//    attribution and percentile tests are exact, not timing-dependent.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace manet::prof {

/// What kind of work an event or scope performs. Scheduler events carry
/// their category from the scheduling site; scopes refine attribution
/// within a handler.
enum class Category : std::uint8_t {
  kPhy,        // channel propagation, reception start/end
  kMac,        // 802.11 DCF: backoff, timeouts, SIFS responses
  kRouting,    // DSR / AODV protocol processing
  kMobility,   // position queries (random-waypoint evaluation)
  kTraffic,    // CBR source ticks
  kTransport,  // reliable-transport timers
  kFault,      // fault-injection events
  kTelemetry,  // sampler probes, invariant sweeps
  kOther,      // uncategorised events
};
inline constexpr std::size_t kNumCategories = 9;
const char* toString(Category c);

/// Peak-tracked occupancy gauges reported by the owning subsystems.
enum class Gauge : std::uint8_t {
  kRouteCacheEntries,  // per-node route/link cache entries
  kNegCacheEntries,    // per-node negative-cache entries
  kSendBufOccupancy,   // per-node send-buffer occupancy
};
inline constexpr std::size_t kNumGauges = 3;
const char* toString(Gauge g);

/// Profiling knobs. Environment overrides (read by fromEnv):
///   MANET_PROF=1              enable per-category stats collection
///   MANET_PROF_HIST=0         drop latency histograms (keep counts/time)
///   MANET_PROF_HEARTBEAT=<s>  progress heartbeat every <s> wall seconds
struct ProfConfig {
  bool enabled = false;
  bool histograms = true;
  double heartbeatSec = 0.0;

  /// True when a Profiler should be constructed at all (stats collection
  /// or heartbeat; the heartbeat works without full stats).
  bool installed() const { return enabled || heartbeatSec > 0.0; }

  static ProfConfig fromEnv(ProfConfig base);
  static ProfConfig fromEnv() { return fromEnv(ProfConfig{}); }
};

/// Log-scale latency histogram over nanosecond durations: exact below 4 ns,
/// then 4 linear sub-buckets per power of two (<= ~12.5% quantile error).
/// Fixed storage; recording is branch-free of allocation.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 2;
  static constexpr int kSub = 1 << kSubBits;  // sub-buckets per octave
  static constexpr int kBuckets = 256;        // covers the full uint64 range

  void record(std::uint64_t ns);

  std::uint64_t count() const { return count_; }
  std::uint64_t totalNs() const { return totalNs_; }
  std::uint64_t maxNs() const { return maxNs_; }
  std::uint64_t bucketCount(int bucket) const {
    return counts_[static_cast<std::size_t>(bucket)];
  }

  /// Approximate percentile (p in [0,100]) by rank interpolation within the
  /// containing bucket; 0 when empty.
  double percentileNs(double p) const;

  static int bucketIndex(std::uint64_t ns);
  /// Inclusive lower bound of values mapping to `bucket`.
  static std::uint64_t bucketLowNs(int bucket);
  /// Exclusive upper bound of values mapping to `bucket` (saturated at
  /// uint64 max for the top buckets, whose true bound is not representable).
  static std::uint64_t bucketHighNs(int bucket);

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t totalNs_ = 0;
  std::uint64_t maxNs_ = 0;
};

/// Point-in-time summary of one category.
struct CategoryReport {
  Category category = Category::kOther;
  std::uint64_t dispatches = 0;    // scheduler events charged here
  std::uint64_t scopes = 0;        // scope activations (incl. dispatches)
  std::uint64_t selfNs = 0;        // exclusive wall time
  std::uint64_t maxNs = 0;         // slowest single activation (self time)
  double p50Ns = 0.0;
  double p90Ns = 0.0;
  double p99Ns = 0.0;
};

/// Everything the profiler learned about a run.
struct Report {
  bool enabled = false;
  std::array<CategoryReport, kNumCategories> categories{};
  std::array<std::uint64_t, kNumGauges> gaugePeaks{};
  std::uint64_t peakRssBytes = 0;
  std::uint64_t totalSelfNs = 0;
  std::uint64_t totalDispatches = 0;
};

/// The run's per-category breakdown as one JSON object (the run export's
/// "profile" value).
std::string toJson(const Report& r);

/// Process peak resident set size in bytes (VmHWM; getrusage fallback).
/// Returns 0 when unavailable.
std::uint64_t readPeakRssBytes();

class Scope;

namespace detail {
/// vdso CLOCK_MONOTONIC read (fallback, and the calibration reference).
std::uint64_t steadyNowNs();
/// One-time TSC calibration against steady_clock; 0 when unusable.
double tscNsPerTick();
}  // namespace detail

/// The profiler's default wall-clock read, inlined at every scope site.
/// On x86-64 this is a raw rdtsc (the invariant counter vdso
/// CLOCK_MONOTONIC is itself built on) scaled by a once-per-process
/// calibration — profilers read the clock several times per dispatched
/// event, and an out-of-line clock_gettime there costs >20% of a BENCH
/// run. Values feed reports only; they can never perturb the simulation.
inline std::uint64_t fastClockNs() {
#if defined(__x86_64__)
  static const double nsPerTick = detail::tscNsPerTick();
  if (nsPerTick > 0.0) {
    return static_cast<std::uint64_t>(
        static_cast<double>(__builtin_ia32_rdtsc()) * nsPerTick);
  }
#endif
  return detail::steadyNowNs();
}

/// Collects per-category self-time and occupancy peaks for one run.
/// Single-threaded, like the scheduler that drives it.
class Profiler {
 public:
  using ClockFn = std::uint64_t (*)();

  /// `clock` overrides the wall-clock source (tests); nullptr = monotonic
  /// steady clock.
  explicit Profiler(ProfConfig cfg, ClockFn clock = nullptr);
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// True when per-category stats are being collected (heartbeat-only
  /// profilers skip all scope work).
  bool collecting() const { return cfg_.enabled; }
  const ProfConfig& config() const { return cfg_; }

  /// Charge one scheduler dispatch to `c` (the scope around the handler
  /// accounts the time; this keeps the event count).
  void countDispatch(Category c) {
    if (cfg_.enabled) ++stats_[static_cast<std::size_t>(c)].dispatches;
  }

  /// Raise the peak of `g` to at least `v`.
  void notePeak(Gauge g, std::uint64_t v) {
    if (!cfg_.enabled) return;
    std::uint64_t& peak = gaugePeaks_[static_cast<std::size_t>(g)];
    if (v > peak) peak = v;
  }

  /// Progress heartbeat, called by the scheduler after each dispatched
  /// event. Self-throttles: counter mask first, wall-clock check second,
  /// stderr line at most every heartbeatSec. No-op when heartbeatSec == 0.
  void heartbeat(std::int64_t simNowNs, std::int64_t simUntilNs,
                 std::uint64_t executed) {
    if (heartbeatPeriodNs_ == 0) return;
    if ((++hbTick_ & 0x3FF) != 0) return;
    heartbeatSlow(simNowNs, simUntilNs, executed);
  }

  Report report() const;

  /// Wall-clock read: injected test clock when present, else the inlined
  /// fast clock (see fastClockNs above).
  std::uint64_t clockNs() const {
    return clock_ != nullptr ? clock_() : fastClockNs();
  }

 private:
  friend class Scope;

  struct CategoryStats {
    std::uint64_t dispatches = 0;
    std::uint64_t scopes = 0;
    std::uint64_t selfNs = 0;
    LatencyHistogram latency;
  };

  void recordSelf(Category c, std::uint64_t selfNs) {
    CategoryStats& s = stats_[static_cast<std::size_t>(c)];
    ++s.scopes;
    s.selfNs += selfNs;
    if (cfg_.histograms) s.latency.record(selfNs);
  }

  void heartbeatSlow(std::int64_t simNowNs, std::int64_t simUntilNs,
                     std::uint64_t executed);

  ProfConfig cfg_;
  ClockFn clock_;
  Scope* current_ = nullptr;  // innermost open scope (single-threaded)
  std::array<CategoryStats, kNumCategories> stats_{};
  std::array<std::uint64_t, kNumGauges> gaugePeaks_{};
  // Heartbeat state (wall-clock only; never influences the simulation).
  std::uint64_t heartbeatPeriodNs_ = 0;
  std::uint64_t hbTick_ = 0;
  std::uint64_t startWallNs_ = 0;
  std::uint64_t lastBeatWallNs_ = 0;
  std::int64_t lastBeatSimNs_ = 0;
  std::uint64_t lastBeatEvents_ = 0;
};

/// RAII self-time attribution. Inert (no clock read, no state) when the
/// profiler is null or not collecting. Nesting charges the inner scope's
/// elapsed time to the inner category and excludes it from the outer
/// scope's self time.
class Scope {
 public:
  Scope(Profiler* p, Category c) : cat_(c) {
    if (p == nullptr || !p->collecting()) return;
    prof_ = p;
    startNs_ = p->clockNs();
    parent_ = p->current_;
    p->current_ = this;
  }

  ~Scope() {
    if (prof_ == nullptr) return;
    const std::uint64_t elapsed = prof_->clockNs() - startNs_;
    const std::uint64_t self = elapsed > childNs_ ? elapsed - childNs_ : 0;
    prof_->recordSelf(cat_, self);
    prof_->current_ = parent_;
    if (parent_ != nullptr) parent_->childNs_ += elapsed;
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Category cat_;
  Profiler* prof_ = nullptr;
  Scope* parent_ = nullptr;
  std::uint64_t startNs_ = 0;
  std::uint64_t childNs_ = 0;
};

}  // namespace manet::prof
