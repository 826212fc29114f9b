#include "src/telemetry/sampler.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/scenario/scenario.h"
#include "src/telemetry/telemetry_config.h"

namespace manet::telemetry {
namespace {

using sim::Time;

scenario::ScenarioConfig smallScenario() {
  scenario::ScenarioConfig cfg;
  cfg.numNodes = 16;
  cfg.field = {700.0, 400.0};
  cfg.numFlows = 4;
  cfg.packetsPerSecond = 2.0;
  cfg.duration = Time::seconds(30);
  cfg.mobilitySeed = 7;
  cfg.telemetry = TelemetryConfig{};  // env-independent
  return cfg;
}

TEST(SamplerTest, DisabledByDefault) {
  const scenario::RunResult r = scenario::runScenario(smallScenario());
  EXPECT_TRUE(r.series.empty());
}

TEST(SamplerTest, ProbesAtConfiguredPeriod) {
  scenario::ScenarioConfig cfg = smallScenario();
  cfg.telemetry.samplePeriod = Time::seconds(1);
  const scenario::RunResult r = scenario::runScenario(cfg);
  // Probes at 1 s, 2 s, ..., up to the 30 s horizon (the probe at exactly
  // the horizon still runs; its successor does not).
  EXPECT_GE(r.series.size(), 29u);
  EXPECT_LE(r.series.size(), 30u);
  ASSERT_FALSE(r.series.empty());
  EXPECT_NEAR(r.series.timeSec.front(), 1.0, 1e-9);
  // Columnar invariant: every column has one value per probe.
  const std::size_t n = r.series.size();
  EXPECT_EQ(r.series.meanCacheSize.size(), n);
  EXPECT_EQ(r.series.invalidEntryFrac.size(), n);
  EXPECT_EQ(r.series.meanSendBufOccupancy.size(), n);
  EXPECT_EQ(r.series.originated.size(), n);
  EXPECT_EQ(r.series.delivered.size(), n);
  EXPECT_EQ(r.series.dropped.size(), n);
  EXPECT_EQ(r.series.cacheHits.size(), n);
  EXPECT_EQ(r.series.linkBreaks.size(), n);
}

TEST(SamplerTest, DeltasSumToFinalCounters) {
  scenario::ScenarioConfig cfg = smallScenario();
  cfg.telemetry.samplePeriod = Time::seconds(1);
  const scenario::RunResult r = scenario::runScenario(cfg);
  std::uint64_t orig = 0, deliv = 0;
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    orig += r.series.originated[i];
    deliv += r.series.delivered[i];
  }
  // Deltas cover everything up to the last probe; the remainder happened in
  // the final partial interval.
  EXPECT_LE(orig, r.metrics.dataOriginated);
  EXPECT_LE(deliv, r.metrics.dataDelivered);
  EXPECT_GT(orig, 0u);
  // At most one probe interval of traffic can be missing.
  EXPECT_GE(orig + 50, r.metrics.dataOriginated);
}

TEST(SamplerTest, CacheStateIsPlausible) {
  scenario::ScenarioConfig cfg = smallScenario();
  cfg.telemetry.samplePeriod = Time::seconds(2);
  const scenario::RunResult r = scenario::runScenario(cfg);
  ASSERT_FALSE(r.series.empty());
  bool sawCache = false;
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    EXPECT_GE(r.series.meanCacheSize[i], 0.0);
    EXPECT_GE(r.series.invalidEntryFrac[i], 0.0);
    EXPECT_LE(r.series.invalidEntryFrac[i], 1.0);
    if (r.series.meanCacheSize[i] > 0.0) sawCache = true;
  }
  EXPECT_TRUE(sawCache);  // active flows must populate caches
}

TEST(TelemetryConfigTest, SamplePeriodFromEnv) {
  ::setenv("MANET_SAMPLE_PERIOD", "2.5", 1);
  const TelemetryConfig cfg = TelemetryConfig::fromEnv();
  EXPECT_EQ(cfg.samplePeriod.ns(), 2'500'000'000);
  ::setenv("MANET_SAMPLE_PERIOD", "0", 1);
  EXPECT_EQ(TelemetryConfig::fromEnv(cfg).samplePeriod.ns(), 0);
  // Unparsable, non-finite and out-of-range periods (1e10 s overflows the
  // int64 nanosecond count) leave the base setting.
  for (const char* bad : {"abc", "-1", "inf", "nan", "1e300", "1e10"}) {
    ::setenv("MANET_SAMPLE_PERIOD", bad, 1);
    EXPECT_EQ(TelemetryConfig::fromEnv(cfg).samplePeriod.ns(), 2'500'000'000)
        << bad;
  }
  ::unsetenv("MANET_SAMPLE_PERIOD");
}

}  // namespace
}  // namespace manet::telemetry
