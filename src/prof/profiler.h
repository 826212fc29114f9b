// Self-profiling subsystem: where does simulator wall time go?
//
// The scheduler attributes wall-clock time and dispatch counts to event
// categories (PHY, MAC, routing, mobility, traffic, transport, fault,
// telemetry). Each category is charged the wall time of its runs of
// consecutive dispatches, scheduler overhead included, so work a handler
// does for another layer (DSR processing inside a MAC or PHY reception)
// stays with the handler's category. Per-run latency histograms, cache
// occupancy peaks and peak RSS round out the picture.
//
// Design constraints:
//  * Cheap when on: the clock is read only when the dispatched category
//    changes, not around every event, so the split describes the
//    unprofiled run rather than the profiler's own cost.
//  * Branch-cheap when off: an unprofiled scheduler pays one null-pointer
//    check per dispatch; a disabled profiler performs no clock reads and
//    no allocations.
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

/// What kind of work an event performs. Scheduler events carry their
/// category from the scheduling site.
enum class Category : std::uint8_t {
  kPhy,        // channel propagation, reception start/end
  kMac,        // 802.11 DCF: backoff, timeouts, SIFS responses
  kRouting,    // DSR / AODV protocol timers
  kMobility,   // no event is scheduled under it; perfbench reports it
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
///   MANET_PROF=1       enable per-category stats collection
///   MANET_PROF_HIST=0  drop latency histograms (keep counts/time)
struct ProfConfig {
  bool enabled = false;
  bool histograms = true;

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
  std::uint64_t dispatches = 0;    // scheduler events of this category
  std::uint64_t selfNs = 0;        // wall time of this category's runs
  std::uint64_t maxNs = 0;         // longest single run
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

namespace detail {
/// vdso CLOCK_MONOTONIC read (fallback, and the calibration reference).
std::uint64_t steadyNowNs();
/// One-time TSC calibration against steady_clock; 0 when unusable.
double tscNsPerTick();
}  // namespace detail

/// The profiler's default wall-clock read, inlined at every read site.
/// On x86-64 this is a raw rdtsc (the invariant counter vdso
/// CLOCK_MONOTONIC is itself built on) scaled by a once-per-process
/// calibration, far cheaper than an out-of-line clock_gettime. Values feed
/// reports only; they can never perturb the simulation.
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

/// Collects per-category wall time and occupancy peaks for one run.
/// Single-threaded, like the scheduler that drives it.
///
/// Time is charged in *category runs*: maximal stretches of consecutive
/// dispatches that share a category. The profiler keeps one run open and
/// reads the clock only when the dispatched category differs from it, so a
/// broadcast's burst of same-category receiver events costs one read.
class Profiler {
 public:
  using ClockFn = std::uint64_t (*)();

  /// `clock` overrides the wall-clock source (tests); nullptr = monotonic
  /// steady clock.
  explicit Profiler(ProfConfig cfg, ClockFn clock = nullptr)
      : cfg_(cfg), clock_(clock) {}
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Called by the scheduler before each handler runs. Counts the dispatch;
  /// when `c` differs from the open run's category (or no run is open), it
  /// closes that run and opens one for `c` at the current clock reading.
  /// A disabled profiler does nothing.
  void dispatch(Category c) {
    if (!cfg_.enabled) return;
    ++stats_[static_cast<std::size_t>(c)].dispatches;
    if (static_cast<std::uint8_t>(c) != runCat_) switchRun(c);
  }

  /// Close the open run, if any, so the time until the next dispatch is not
  /// charged (the scheduler calls this when runUntil returns).
  void closeRun() {
    if (runCat_ == kNoRun) return;
    charge(clockNs());
    runCat_ = kNoRun;
  }

  /// Raise the peak of `g` to at least `v`.
  void notePeak(Gauge g, std::uint64_t v) {
    if (!cfg_.enabled) return;
    std::uint64_t& peak = gaugePeaks_[static_cast<std::size_t>(g)];
    if (v > peak) peak = v;
  }

  Report report() const;

 private:
  static constexpr std::uint8_t kNoRun = kNumCategories;

  struct CategoryStats {
    std::uint64_t dispatches = 0;
    std::uint64_t selfNs = 0;
    LatencyHistogram latency;  // one record per closed run
  };

  /// Wall-clock read: injected test clock when present, else the inlined
  /// fast clock (see fastClockNs above).
  std::uint64_t clockNs() const {
    return clock_ != nullptr ? clock_() : fastClockNs();
  }

  void switchRun(Category c);
  /// Charge the open run's time up to `nowNs` to its category.
  void charge(std::uint64_t nowNs);

  ProfConfig cfg_;
  ClockFn clock_;
  std::uint8_t runCat_ = kNoRun;  // open run's category, or kNoRun
  std::uint64_t runStartNs_ = 0;  // clock reading when the open run began
  std::array<CategoryStats, kNumCategories> stats_{};
  std::array<std::uint64_t, kNumGauges> gaugePeaks_{};
};

}  // namespace manet::prof
