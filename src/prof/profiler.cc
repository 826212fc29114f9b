#include "src/prof/profiler.h"

#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace manet::prof {

const char* toString(Category c) {
  switch (c) {
    case Category::kPhy: return "phy";
    case Category::kMac: return "mac";
    case Category::kRouting: return "routing";
    case Category::kMobility: return "mobility";
    case Category::kTraffic: return "traffic";
    case Category::kTransport: return "transport";
    case Category::kFault: return "fault";
    case Category::kTelemetry: return "telemetry";
    case Category::kOther: return "other";
  }
  return "?";
}

const char* toString(Gauge g) {
  switch (g) {
    case Gauge::kRouteCacheEntries: return "route_cache_entries_peak";
    case Gauge::kNegCacheEntries: return "neg_cache_entries_peak";
    case Gauge::kSendBufOccupancy: return "send_buf_occupancy_peak";
  }
  return "?";
}

ProfConfig ProfConfig::fromEnv(ProfConfig base) {
  if (const char* v = std::getenv("MANET_PROF"); v != nullptr) {  // NOLINT(concurrency-mt-unsafe)
    base.enabled = v[0] == '1';
  }
  if (const char* v = std::getenv("MANET_PROF_HIST"); v != nullptr) {  // NOLINT(concurrency-mt-unsafe)
    base.histograms = v[0] != '0';
  }
  return base;
}

// ---------------------------------------------------------------- histogram

int LatencyHistogram::bucketIndex(std::uint64_t ns) {
  if (ns < kSub) return static_cast<int>(ns);
  const int msb = 63 - std::countl_zero(ns);
  // Keep the top kSubBits+1 bits: (ns >> (msb-kSubBits)) is in [kSub, 2*kSub).
  const int idx = static_cast<int>(
      static_cast<std::uint64_t>((msb - kSubBits + 1)) * kSub +
      ((ns >> (msb - kSubBits)) - kSub));
  return idx < kBuckets ? idx : kBuckets - 1;
}

std::uint64_t LatencyHistogram::bucketLowNs(int bucket) {
  if (bucket < kSub) return static_cast<std::uint64_t>(bucket);
  const int octave = bucket / kSub;       // >= 1
  const int rem = bucket % kSub;
  return static_cast<std::uint64_t>(kSub + rem) << (octave - 1);
}

std::uint64_t LatencyHistogram::bucketHighNs(int bucket) {
  if (bucket < kSub) return static_cast<std::uint64_t>(bucket) + 1;
  const int octave = bucket / kSub;
  const int rem = bucket % kSub;
  const std::uint64_t base = static_cast<std::uint64_t>(kSub + rem + 1);
  const int shift = octave - 1;
  // The top buckets' exclusive bound exceeds uint64: saturate.
  if (shift >= 64 ||
      base > (std::numeric_limits<std::uint64_t>::max() >> shift)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return base << shift;
}

void LatencyHistogram::record(std::uint64_t ns) {
  ++counts_[static_cast<std::size_t>(bucketIndex(ns))];
  ++count_;
  totalNs_ += ns;
  if (ns > maxNs_) maxNs_ = ns;
}

double LatencyHistogram::percentileNs(double p) const {
  if (count_ == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the target sample, 1-based; at least 1.
  const double exact = p / 100.0 * static_cast<double>(count_);
  std::uint64_t rank = static_cast<std::uint64_t>(exact);
  if (static_cast<double>(rank) < exact || rank == 0) ++rank;
  std::uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    if (cum + counts_[b] >= rank) {
      const double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(counts_[b]);
      const double low = static_cast<double>(bucketLowNs(b));
      // Interpolate up to the bucket's largest *member* (high is an
      // exclusive bound), which makes width-1 buckets (< kSub ns) exact.
      const double top = static_cast<double>(bucketHighNs(b) - 1);
      return low + (top - low) * frac;
    }
    cum += counts_[b];
  }
  return static_cast<double>(maxNs_);
}

// ----------------------------------------------------------------- profiler

namespace detail {

// Audited: src/prof/ is exempt from the manet_lint wall-clock rule by
// design — this is the single funnel for host-time reads, and the values
// only ever flow into reports (self-time, run latencies), never back into
// scheduling, RNG draws, or any simulation decision.
std::uint64_t steadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Calibrate the TSC rate against steady_clock over a ~2 ms spin (runs once
// per process, lazily on the first profiled clock read). Returns 0 when the
// counter is unusable (c1 <= c0, i.e. non-invariant or emulated TSC), which
// makes fastClockNs fall back to the vdso read.
double tscNsPerTick() {
#if defined(__x86_64__)
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t c0 = __builtin_ia32_rdtsc();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::milliseconds(2)) {
  }
  const std::uint64_t c1 = __builtin_ia32_rdtsc();
  const auto t1 = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return c1 > c0 ? static_cast<double>(ns) / static_cast<double>(c1 - c0)
                 : 0.0;
#else
  return 0.0;
#endif
}

}  // namespace detail

void Profiler::switchRun(Category c) {
  const std::uint64_t now = clockNs();
  charge(now);
  runCat_ = static_cast<std::uint8_t>(c);
  runStartNs_ = now;
}

void Profiler::charge(std::uint64_t nowNs) {
  if (runCat_ == kNoRun) return;
  CategoryStats& s = stats_[runCat_];
  const std::uint64_t ns = nowNs - runStartNs_;
  s.selfNs += ns;
  if (cfg_.histograms) s.latency.record(ns);
}

Report Profiler::report() const {
  Report r;
  r.enabled = cfg_.enabled;
  for (std::size_t i = 0; i < kNumCategories; ++i) {
    const CategoryStats& s = stats_[i];
    CategoryReport& c = r.categories[i];
    c.category = static_cast<Category>(i);
    c.dispatches = s.dispatches;
    c.selfNs = s.selfNs;
    c.maxNs = s.latency.maxNs();
    if (cfg_.histograms && s.latency.count() > 0) {
      c.p50Ns = s.latency.percentileNs(50.0);
      c.p90Ns = s.latency.percentileNs(90.0);
      c.p99Ns = s.latency.percentileNs(99.0);
    }
    r.totalSelfNs += s.selfNs;
    r.totalDispatches += s.dispatches;
  }
  r.gaugePeaks = gaugePeaks_;
  r.peakRssBytes = readPeakRssBytes();
  return r;
}

std::uint64_t readPeakRssBytes() {
  // VmHWM from /proc/self/status is the peak resident set in kB.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    std::uint64_t kb = 0;
    bool found = false;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %" SCNu64 " kB", &kb) == 1) {
        found = true;
        break;
      }
    }
    std::fclose(f);
    if (found) return kb * 1024;
  }
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // kB on Linux
  }
  return 0;
}

std::string toJson(const Report& r) {
  char buf[256];
  std::string out = "{\"enabled\":";
  out += r.enabled ? "true" : "false";
  std::snprintf(buf, sizeof(buf),
                ",\"peak_rss_bytes\":%" PRIu64 ",\"total_self_ns\":%" PRIu64
                ",\"total_dispatches\":%" PRIu64,
                r.peakRssBytes, r.totalSelfNs, r.totalDispatches);
  out += buf;
  for (std::size_t g = 0; g < kNumGauges; ++g) {
    std::snprintf(buf, sizeof(buf), ",\"%s\":%" PRIu64,
                  toString(static_cast<Gauge>(g)), r.gaugePeaks[g]);
    out += buf;
  }
  out += ",\"categories\":{";
  bool first = true;
  for (const CategoryReport& c : r.categories) {
    if (c.dispatches == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"dispatches\":%" PRIu64 ",\"self_ns\":%" PRIu64
                  ",\"max_ns\":%" PRIu64
                  ",\"p50_ns\":%.9g,\"p90_ns\":%.9g,\"p99_ns\":%.9g}",
                  first ? "" : ",", toString(c.category), c.dispatches,
                  c.selfNs, c.maxNs, c.p50Ns, c.p90Ns, c.p99Ns);
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace manet::prof
