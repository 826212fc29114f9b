// Profiler unit tests: histogram percentile correctness, category-run
// attribution through the scheduler (exact, via an injected fake wall
// clock that counts its reads), and the zero-allocation guarantee of the
// profiled dispatch path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/prof/profiler.h"
#include "src/sim/scheduler.h"

// Replaceable global operator new/delete with an allocation counter, so
// tests can assert the profiler's record path never touches the heap.
// Counting is process-wide, and other tests in this binary allocate from
// worker threads, so the counter is atomic. Tests snapshot it around the
// region under test and avoid gtest macros inside it.
namespace {
std::atomic<std::uint64_t> g_allocCount{0};
}

void* operator new(std::size_t size) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
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

using sim::Scheduler;
using sim::Time;

std::uint64_t allocCount() {
  return g_allocCount.load(std::memory_order_relaxed);
}

// Injected wall clock the tests advance explicitly; it counts its reads.
std::uint64_t g_fakeNow = 0;
std::uint64_t g_clockReads = 0;
std::uint64_t fakeClock() {
  ++g_clockReads;
  return g_fakeNow;
}

ProfConfig enabledCfg() {
  ProfConfig cfg;
  cfg.enabled = true;
  return cfg;
}

const CategoryReport& cat(const Report& r, Category c) {
  return r.categories[static_cast<std::size_t>(c)];
}

// Schedule an event at `at` whose handler advances the fake clock by
// `costNs`, standing in for the handler's wall time.
void scheduleCost(Scheduler& s, Time at, Category c, std::uint64_t costNs) {
  s.scheduleAt(at, [costNs] { g_fakeNow += costNs; }, c);
}

TEST(ProfilerTest, CategoryRunsChargeExactSelfTime) {
  Scheduler sched;
  Profiler p(enabledCfg(), &fakeClock);
  sched.setProfiler(&p);
  g_fakeNow = 1000;
  g_clockReads = 0;
  // mac, mac, phy, phy, phy, routing. Each handler also notes how many
  // clock reads had happened when it ran.
  const Category cats[] = {Category::kMac, Category::kMac,
                           Category::kPhy, Category::kPhy,
                           Category::kPhy, Category::kRouting};
  const std::uint64_t costs[] = {10, 20, 5, 5, 7, 40};
  std::uint64_t readsSeen[6] = {};
  for (int i = 0; i < 6; ++i) {
    sched.scheduleAt(
        Time::micros(i + 1),
        [i, &costs, &readsSeen] {
          readsSeen[i] = g_clockReads;
          g_fakeNow += costs[i];
        },
        cats[i]);
  }
  sched.runUntil(Time::micros(10));
  // One read opens each category run; a same-category burst adds none.
  const std::uint64_t expectedReads[6] = {1, 1, 2, 2, 2, 3};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(readsSeen[i], expectedReads[i]) << "event " << i;
  }
  EXPECT_EQ(g_clockReads, 4u);  // runUntil's exit closed the routing run

  // Wall time between runUntil calls is charged to nobody, even when the
  // next call opens with the category the last one ended on.
  g_fakeNow += 500;
  scheduleCost(sched, Time::micros(20), Category::kRouting, 8);
  sched.runUntil(Time::micros(30));
  EXPECT_EQ(g_clockReads, 6u);
  sched.runUntil(Time::micros(40));  // nothing to dispatch, nothing to read
  EXPECT_EQ(g_clockReads, 6u);

  const Report r = p.report();
  EXPECT_EQ(cat(r, Category::kMac).dispatches, 2u);
  EXPECT_EQ(cat(r, Category::kMac).selfNs, 30u);
  EXPECT_EQ(cat(r, Category::kPhy).dispatches, 3u);
  EXPECT_EQ(cat(r, Category::kPhy).selfNs, 17u);
  EXPECT_EQ(cat(r, Category::kRouting).dispatches, 2u);
  EXPECT_EQ(cat(r, Category::kRouting).selfNs, 48u);
  EXPECT_EQ(cat(r, Category::kRouting).maxNs, 40u);  // the longer run
  EXPECT_EQ(r.totalDispatches, 7u);
  EXPECT_EQ(r.totalSelfNs, 95u);  // exactly the time spent inside runUntil
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing) {
  Scheduler sched;
  Profiler p(ProfConfig{}, &fakeClock);  // enabled = false
  sched.setProfiler(&p);
  g_fakeNow = 100;
  g_clockReads = 0;
  scheduleCost(sched, Time::micros(1), Category::kMac, 100);
  scheduleCost(sched, Time::micros(2), Category::kPhy, 100);
  sched.run();
  p.notePeak(Gauge::kRouteCacheEntries, 99);
  const Report r = p.report();
  EXPECT_FALSE(r.enabled);
  EXPECT_EQ(sched.executedCount(), 2u);
  EXPECT_EQ(r.totalDispatches, 0u);
  EXPECT_EQ(r.totalSelfNs, 0u);
  EXPECT_EQ(g_clockReads, 0u);
  EXPECT_EQ(
      r.gaugePeaks[static_cast<std::size_t>(Gauge::kRouteCacheEntries)], 0u);
}

TEST(ProfilerTest, DispatchCountsAndGaugePeaks) {
  Scheduler sched;
  Profiler p(enabledCfg(), &fakeClock);
  sched.setProfiler(&p);
  scheduleCost(sched, Time::micros(1), Category::kPhy, 1);
  scheduleCost(sched, Time::micros(2), Category::kPhy, 1);
  scheduleCost(sched, Time::micros(3), Category::kFault, 1);
  sched.run();
  p.notePeak(Gauge::kSendBufOccupancy, 3);
  p.notePeak(Gauge::kSendBufOccupancy, 7);
  p.notePeak(Gauge::kSendBufOccupancy, 5);  // lower: must not lower the peak
  const Report r = p.report();
  EXPECT_EQ(cat(r, Category::kPhy).dispatches, 2u);
  EXPECT_EQ(cat(r, Category::kFault).dispatches, 1u);
  EXPECT_EQ(r.totalDispatches, 3u);
  EXPECT_EQ(r.gaugePeaks[static_cast<std::size_t>(Gauge::kSendBufOccupancy)],
            7u);
}

TEST(ProfilerTest, PercentilesInReport) {
  Scheduler sched;
  Profiler p(enabledCfg(), &fakeClock);
  sched.setProfiler(&p);
  g_fakeNow = 0;
  // Alternate categories so every traffic event is a run of its own, and
  // every traffic run takes exactly 100 ns.
  for (int i = 0; i < 100; ++i) {
    scheduleCost(sched, Time::micros(2 * i), Category::kTraffic, 100);
    scheduleCost(sched, Time::micros(2 * i + 1), Category::kMac, 900);
  }
  sched.run();
  const Report r = p.report();
  const CategoryReport& t = cat(r, Category::kTraffic);
  EXPECT_EQ(t.dispatches, 100u);
  EXPECT_EQ(t.selfNs, 100u * 100u);
  EXPECT_EQ(t.maxNs, 100u);
  // All samples identical: every percentile lands in the same bucket.
  EXPECT_GE(t.p50Ns, 100.0 * 0.875);
  EXPECT_LE(t.p50Ns, 100.0 * 1.25);
  EXPECT_GE(t.p99Ns, 100.0 * 0.875);
  EXPECT_LE(t.p99Ns, 100.0 * 1.25);
}

TEST(ProfilerTest, ReportJsonHasExpectedKeys) {
  Scheduler sched;
  Profiler p(enabledCfg(), &fakeClock);
  sched.setProfiler(&p);
  g_fakeNow = 0;
  scheduleCost(sched, Time::micros(1), Category::kRouting, 500);
  sched.run();
  p.notePeak(Gauge::kNegCacheEntries, 4);
  const std::string json = toJson(p.report());
  EXPECT_NE(json.find("\"routing\":{\"dispatches\":1,\"self_ns\":500"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"neg_cache_entries_peak\":4"), std::string::npos);
  EXPECT_NE(json.find("\"total_dispatches\":1"), std::string::npos);
  // Categories with no activity are omitted.
  EXPECT_EQ(json.find("\"transport\""), std::string::npos);
}

// ------------------------------------------------------------- allocations

// Fill `sched` with `n` events alternating mac and routing, each touching
// a gauge. Run it once beforehand so the scheduler's own buffers (closure
// slots, free list) are at capacity and the measured run allocates nothing
// of the scheduler's.
void warmAlternating(Scheduler& sched, Profiler& p, int n) {
  for (int round = 0; round < 2; ++round) {
    const Time base = sched.now() + Time::micros(1);
    for (int i = 0; i < n; ++i) {
      sched.scheduleAt(
          base + Time::micros(i),
          [&p, i] {
            g_fakeNow += 50;
            p.notePeak(Gauge::kRouteCacheEntries,
                       static_cast<std::uint64_t>(i % 64));
          },
          i % 2 == 0 ? Category::kMac : Category::kRouting);
    }
    if (round == 0) sched.run();
  }
}

TEST(ProfilerTest, RecordPathMakesNoAllocations) {
  Scheduler sched;
  Profiler p(enabledCfg(), &fakeClock);
  sched.setProfiler(&p);
  warmAlternating(sched, p, 1000);
  const std::uint64_t before = allocCount();
  sched.run();  // 1000 dispatches, every one a category change
  const std::uint64_t after = allocCount();
  EXPECT_EQ(after, before)
      << "profiled dispatch path allocated on the heap";
  EXPECT_EQ(p.report().totalDispatches, 2000u);
}

TEST(ProfilerTest, DisabledPathMakesNoAllocationsAndNoClockReads) {
  Scheduler sched;
  Profiler p(ProfConfig{}, &fakeClock);
  sched.setProfiler(&p);
  warmAlternating(sched, p, 1000);
  g_clockReads = 0;
  const std::uint64_t before = allocCount();
  sched.run();
  EXPECT_EQ(allocCount(), before);
  EXPECT_EQ(g_clockReads, 0u);
  EXPECT_EQ(p.report().totalSelfNs, 0u);
}

// ------------------------------------------------------------------ config

TEST(ProfConfigTest, FromEnvOverrides) {
  ::setenv("MANET_PROF", "1", 1);
  ::setenv("MANET_PROF_HIST", "0", 1);
  const ProfConfig cfg = ProfConfig::fromEnv();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_FALSE(cfg.histograms);
  ::unsetenv("MANET_PROF");
  ::unsetenv("MANET_PROF_HIST");
  const ProfConfig off = ProfConfig::fromEnv();
  EXPECT_FALSE(off.enabled);
  EXPECT_TRUE(off.histograms);
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
