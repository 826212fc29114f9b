// Profiler unit tests: histogram percentile correctness, nested-scope
// attribution (exact, via an injected fake wall clock), and the
// zero-allocation guarantee of the record path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/prof/profiler.h"

// Replaceable global operator new/delete with an allocation counter, so
// tests can assert the profiler's record path never touches the heap.
// Counting is process-wide; tests snapshot the counter around the region
// under test and avoid gtest macros inside it.
namespace {
std::uint64_t g_allocCount = 0;
}

void* operator new(std::size_t size) {
  ++g_allocCount;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace manet::prof {
namespace {

// ---------------------------------------------------------------- histogram

TEST(LatencyHistogramTest, ExactBelowFourNs) {
  LatencyHistogram h;
  // Values 0..3 land in dedicated buckets: percentiles are exact.
  for (int i = 0; i < 100; ++i) h.record(1);
  for (int i = 0; i < 100; ++i) h.record(3);
  EXPECT_EQ(h.count(), 200u);
  EXPECT_EQ(h.totalNs(), 100u * 1 + 100u * 3);
  EXPECT_EQ(h.maxNs(), 3u);
  EXPECT_DOUBLE_EQ(h.percentileNs(25), 1.0);
  EXPECT_DOUBLE_EQ(h.percentileNs(99), 3.0);
}

TEST(LatencyHistogramTest, BucketBoundsContainValue) {
  // Every recorded value must satisfy low <= v < high of its bucket.
  for (std::uint64_t v :
       {0ull, 1ull, 3ull, 4ull, 5ull, 7ull, 8ull, 100ull, 1023ull, 1024ull,
        999999ull, 1ull << 40, ~0ull}) {
    const int b = LatencyHistogram::bucketIndex(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, LatencyHistogram::kBuckets);
    EXPECT_LE(LatencyHistogram::bucketLowNs(b), v) << "value " << v;
    const std::uint64_t high = LatencyHistogram::bucketHighNs(b);
    // The top buckets saturate their (unrepresentable) exclusive bound.
    EXPECT_TRUE(high > v || high == ~0ull) << "value " << v;
  }
}

TEST(LatencyHistogramTest, BucketIndexMonotonic) {
  int last = -1;
  for (std::uint64_t v = 0; v < (1ull << 20); v = v < 16 ? v + 1 : v * 5 / 4) {
    const int b = LatencyHistogram::bucketIndex(v);
    EXPECT_GE(b, last) << "value " << v;
    last = b;
  }
}

TEST(LatencyHistogramTest, PercentileWithinBucketError) {
  // 4 linear sub-buckets per octave bound the relative quantile error at
  // ~12.5%. Record a bimodal distribution and check both modes.
  LatencyHistogram h;
  for (int i = 0; i < 900; ++i) h.record(100);
  for (int i = 0; i < 100; ++i) h.record(10000);
  const double p50 = h.percentileNs(50);
  EXPECT_GE(p50, 100.0 * 0.875);
  EXPECT_LE(p50, 100.0 * 1.25);
  const double p99 = h.percentileNs(99);
  EXPECT_GE(p99, 10000.0 * 0.875);
  EXPECT_LE(p99, 10000.0 * 1.25);
}

TEST(LatencyHistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentileNs(50), 0.0);
}

TEST(LatencyHistogramTest, EmptyPercentilesAreZero) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.percentileNs(50), 0.0);
  EXPECT_DOUBLE_EQ(h.percentileNs(90), 0.0);
  EXPECT_DOUBLE_EQ(h.percentileNs(99), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleEveryPercentile) {
  LatencyHistogram h;
  h.record(7);
  // With one sample, every percentile must land in its bucket (values 4..7
  // share the [7, 8) sub-bucket boundary behaviour: low <= p < high).
  const int b = LatencyHistogram::bucketIndex(7);
  for (double p : {0.1, 50.0, 90.0, 99.0, 100.0}) {
    const double v = h.percentileNs(p);
    EXPECT_GE(v, static_cast<double>(LatencyHistogram::bucketLowNs(b)))
        << "p" << p;
    EXPECT_LE(v, static_cast<double>(LatencyHistogram::bucketHighNs(b)))
        << "p" << p;
  }
}

TEST(LatencyHistogramTest, AllSamplesInTopBucket) {
  // The top bucket's exclusive bound is unrepresentable and saturates at
  // uint64 max; percentiles over a distribution living entirely there must
  // stay inside the bucket and not overflow.
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.record(~0ull);
  const int top = LatencyHistogram::bucketIndex(~0ull);
  EXPECT_EQ(h.bucketCount(top), 10u);
  EXPECT_EQ(h.maxNs(), ~0ull);
  for (double p : {50.0, 90.0, 99.0}) {
    const double v = h.percentileNs(p);
    EXPECT_GE(v, static_cast<double>(LatencyHistogram::bucketLowNs(top)));
    EXPECT_LE(v, static_cast<double>(LatencyHistogram::bucketHighNs(top)));
  }
}

TEST(LatencyHistogramTest, PercentilesMonotonicInP) {
  // p50 <= p90 <= p99 must hold for any recorded distribution; sweep a
  // few shapes (uniform, bimodal, heavy-tail).
  const auto check = [](const LatencyHistogram& h, const char* what) {
    double last = 0.0;
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
      const double v = h.percentileNs(p);
      EXPECT_GE(v, last) << what << " at p" << p;
      last = v;
    }
  };
  LatencyHistogram uniform;
  for (std::uint64_t v = 0; v < 1000; ++v) uniform.record(v);
  check(uniform, "uniform");
  LatencyHistogram bimodal;
  for (int i = 0; i < 500; ++i) bimodal.record(10);
  for (int i = 0; i < 500; ++i) bimodal.record(1000000);
  check(bimodal, "bimodal");
  LatencyHistogram tail;
  for (int i = 0; i < 990; ++i) tail.record(50);
  for (int i = 0; i < 10; ++i) tail.record(1ull << 40);
  check(tail, "heavy-tail");
}

// ------------------------------------------------------------- attribution

// Injected wall clock the tests advance explicitly.
std::uint64_t g_fakeNow = 0;
std::uint64_t fakeClock() { return g_fakeNow; }

ProfConfig enabledCfg() {
  ProfConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(ProfilerTest, ScopeSelfTimeExact) {
  Profiler p(enabledCfg(), &fakeClock);
  g_fakeNow = 100;
  {
    Scope s(&p, Category::kMac);
    g_fakeNow = 160;
  }
  const Report r = p.report();
  const auto& mac = r.categories[static_cast<std::size_t>(Category::kMac)];
  EXPECT_EQ(mac.scopes, 1u);
  EXPECT_EQ(mac.selfNs, 60u);
  EXPECT_EQ(mac.maxNs, 60u);
}

TEST(ProfilerTest, NestedScopeChargesInnerCategoryOnly) {
  Profiler p(enabledCfg(), &fakeClock);
  g_fakeNow = 1000;
  {
    Scope outer(&p, Category::kMac);
    g_fakeNow = 1050;  // 50 ns of MAC work before the nested call
    {
      Scope inner(&p, Category::kRouting);
      g_fakeNow = 1090;  // 40 ns of routing work
    }
    g_fakeNow = 1100;  // 10 ns of MAC work after
  }
  const Report r = p.report();
  const auto& mac = r.categories[static_cast<std::size_t>(Category::kMac)];
  const auto& routing =
      r.categories[static_cast<std::size_t>(Category::kRouting)];
  EXPECT_EQ(routing.selfNs, 40u);
  // Outer elapsed 100 ns minus the child's 40 ns = 60 ns of self time.
  EXPECT_EQ(mac.selfNs, 60u);
  EXPECT_EQ(r.totalSelfNs, 100u);
}

TEST(ProfilerTest, DoublyNestedAttribution) {
  Profiler p(enabledCfg(), &fakeClock);
  g_fakeNow = 0;
  {
    Scope a(&p, Category::kPhy);
    g_fakeNow = 10;
    {
      Scope b(&p, Category::kMac);
      g_fakeNow = 30;
      {
        Scope c(&p, Category::kRouting);
        g_fakeNow = 100;
      }
      g_fakeNow = 110;
    }
    g_fakeNow = 115;
  }
  const Report r = p.report();
  EXPECT_EQ(r.categories[static_cast<std::size_t>(Category::kRouting)].selfNs,
            70u);
  EXPECT_EQ(r.categories[static_cast<std::size_t>(Category::kMac)].selfNs,
            30u);  // 100 elapsed - 70 child
  EXPECT_EQ(r.categories[static_cast<std::size_t>(Category::kPhy)].selfNs,
            15u);  // 115 elapsed - 100 child
  EXPECT_EQ(r.totalSelfNs, 115u);
}

TEST(ProfilerTest, SameCategoryNestingDoesNotDoubleCount) {
  Profiler p(enabledCfg(), &fakeClock);
  g_fakeNow = 0;
  {
    Scope a(&p, Category::kRouting);
    g_fakeNow = 10;
    {
      Scope b(&p, Category::kRouting);
      g_fakeNow = 50;
    }
    g_fakeNow = 60;
  }
  const Report r = p.report();
  const auto& routing =
      r.categories[static_cast<std::size_t>(Category::kRouting)];
  // 40 inner self + 20 outer self = 60 total, the true elapsed time.
  EXPECT_EQ(routing.selfNs, 60u);
  EXPECT_EQ(routing.scopes, 2u);
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing) {
  Profiler p(ProfConfig{}, &fakeClock);  // enabled = false
  g_fakeNow = 100;
  {
    Scope s(&p, Category::kMac);
    g_fakeNow = 200;
  }
  p.countDispatch(Category::kMac);
  p.notePeak(Gauge::kRouteCacheEntries, 99);
  const Report r = p.report();
  EXPECT_FALSE(r.enabled);
  EXPECT_EQ(r.categories[static_cast<std::size_t>(Category::kMac)].scopes,
            0u);
  EXPECT_EQ(r.totalDispatches, 0u);
  EXPECT_EQ(
      r.gaugePeaks[static_cast<std::size_t>(Gauge::kRouteCacheEntries)], 0u);
}

TEST(ProfilerTest, NullProfilerScopeIsInert) {
  g_fakeNow = 0;
  Scope s(nullptr, Category::kMac);  // must not crash or read the clock
  SUCCEED();
}

TEST(ProfilerTest, DispatchCountsAndGaugePeaks) {
  Profiler p(enabledCfg(), &fakeClock);
  p.countDispatch(Category::kPhy);
  p.countDispatch(Category::kPhy);
  p.countDispatch(Category::kFault);
  p.notePeak(Gauge::kSendBufOccupancy, 3);
  p.notePeak(Gauge::kSendBufOccupancy, 7);
  p.notePeak(Gauge::kSendBufOccupancy, 5);  // lower: must not lower the peak
  const Report r = p.report();
  EXPECT_EQ(r.categories[static_cast<std::size_t>(Category::kPhy)].dispatches,
            2u);
  EXPECT_EQ(
      r.categories[static_cast<std::size_t>(Category::kFault)].dispatches,
      1u);
  EXPECT_EQ(r.totalDispatches, 3u);
  EXPECT_EQ(r.gaugePeaks[static_cast<std::size_t>(Gauge::kSendBufOccupancy)],
            7u);
}

TEST(ProfilerTest, PercentilesInReport) {
  Profiler p(enabledCfg(), &fakeClock);
  for (int i = 0; i < 100; ++i) {
    g_fakeNow = 1000 * static_cast<std::uint64_t>(i);
    Scope s(&p, Category::kTraffic);
    g_fakeNow += 100;  // every scope takes exactly 100 ns
  }
  const Report r = p.report();
  const auto& t = r.categories[static_cast<std::size_t>(Category::kTraffic)];
  EXPECT_EQ(t.scopes, 100u);
  EXPECT_EQ(t.selfNs, 100u * 100u);
  // All samples identical: every percentile lands in the same bucket.
  EXPECT_GE(t.p50Ns, 100.0 * 0.875);
  EXPECT_LE(t.p50Ns, 100.0 * 1.25);
  EXPECT_GE(t.p99Ns, 100.0 * 0.875);
  EXPECT_LE(t.p99Ns, 100.0 * 1.25);
}

TEST(ProfilerTest, ReportJsonHasExpectedKeys) {
  Profiler p(enabledCfg(), &fakeClock);
  g_fakeNow = 0;
  {
    Scope s(&p, Category::kRouting);
    g_fakeNow = 500;
  }
  p.countDispatch(Category::kRouting);
  p.notePeak(Gauge::kNegCacheEntries, 4);
  const std::string json = toJson(p.report());
  EXPECT_NE(json.find("\"routing\""), std::string::npos);
  EXPECT_NE(json.find("\"self_ns\":500"), std::string::npos);
  EXPECT_NE(json.find("\"neg_cache_entries_peak\":4"), std::string::npos);
  EXPECT_NE(json.find("\"total_dispatches\":1"), std::string::npos);
  // Categories with no activity are omitted.
  EXPECT_EQ(json.find("\"transport\""), std::string::npos);
}

// ------------------------------------------------------------- allocations

TEST(ProfilerTest, RecordPathMakesNoAllocations) {
  Profiler p(enabledCfg(), &fakeClock);
  // Warm-up outside the measured region (none of this should allocate
  // either, but the assertion is about the steady-state record path).
  g_fakeNow = 0;
  const std::uint64_t before = g_allocCount;
  for (int i = 0; i < 1000; ++i) {
    Scope outer(&p, Category::kMac);
    g_fakeNow += 50;
    {
      Scope inner(&p, Category::kRouting);
      g_fakeNow += 30;
    }
    p.countDispatch(Category::kMac);
    p.notePeak(Gauge::kRouteCacheEntries,
               static_cast<std::uint64_t>(i % 64));
  }
  const std::uint64_t after = g_allocCount;
  EXPECT_EQ(after, before)
      << "profiler record path allocated on the heap";
}

TEST(ProfilerTest, DisabledPathMakesNoAllocationsAndNoClockReads) {
  Profiler p(ProfConfig{}, &fakeClock);
  g_fakeNow = 777;
  const std::uint64_t before = g_allocCount;
  for (int i = 0; i < 1000; ++i) {
    Scope s(&p, Category::kPhy);
    p.countDispatch(Category::kPhy);
  }
  EXPECT_EQ(g_allocCount, before);
  // A disabled scope never reads the clock, so report() sees nothing.
  EXPECT_EQ(p.report().totalSelfNs, 0u);
}

// ------------------------------------------------------------------ config

TEST(ProfConfigTest, FromEnvOverrides) {
  ::setenv("MANET_PROF", "1", 1);
  ::setenv("MANET_PROF_HIST", "0", 1);
  ::setenv("MANET_PROF_HEARTBEAT", "2.5", 1);
  const ProfConfig cfg = ProfConfig::fromEnv();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_FALSE(cfg.histograms);
  EXPECT_DOUBLE_EQ(cfg.heartbeatSec, 2.5);
  EXPECT_TRUE(cfg.installed());
  // Non-finite periods, and periods whose nanosecond count overflows,
  // leave the base setting.
  for (const char* bad : {"inf", "nan", "1e300"}) {
    ::setenv("MANET_PROF_HEARTBEAT", bad, 1);
    EXPECT_DOUBLE_EQ(ProfConfig::fromEnv(cfg).heartbeatSec, 2.5) << bad;
  }
  ::unsetenv("MANET_PROF");
  ::unsetenv("MANET_PROF_HIST");
  ::unsetenv("MANET_PROF_HEARTBEAT");
  const ProfConfig off = ProfConfig::fromEnv();
  EXPECT_FALSE(off.enabled);
  EXPECT_FALSE(off.installed());
}

TEST(ProfilerTest, PeakRssIsReadable) {
  // /proc/self/status should be available on the platforms we build on;
  // at minimum the accessor must not crash and should report something
  // plausible for a running test binary (> 1 MB).
  const std::uint64_t rss = readPeakRssBytes();
  EXPECT_GT(rss, 1u << 20);
}

}  // namespace
}  // namespace manet::prof
