// The profiler's core guarantee: profiling observes, never perturbs.
// A profiled run must be bit-identical to an unprofiled run — same metrics,
// same event count, same trace-record stream — because the profiler only
// reads the wall clock and fixed-size gauges (never sim time, never any
// simulation RNG stream, never a mutating accessor).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "src/scenario/scenario.h"
#include "src/telemetry/export.h"
#include "tests/testing/fault_events.h"

namespace manet::scenario {
namespace {

using sim::Time;

ScenarioConfig cfg() {
  ScenarioConfig c;
  c.numNodes = 15;
  c.field = {700.0, 350.0};
  c.numFlows = 4;
  c.packetsPerSecond = 2.0;
  c.duration = Time::seconds(30);
  c.mobilitySeed = 11;
  c.telemetry = telemetry::TelemetryConfig{};
  c.telemetry.ringCapacity = 200000;
  c.fault = {};
  c.prof = prof::ProfConfig{};
  return c;
}

// Packet uids come from a process-global counter; canonicalize to
// first-appearance order so runs can be compared record-for-record.
telemetry::TraceRecord canonical(
    telemetry::TraceRecord r, std::map<std::uint64_t, std::uint64_t>& ids) {
  if (r.uid != 0) {
    r.uid = ids.emplace(r.uid, ids.size() + 1).first->second;
  }
  return r;
}

TEST(ProfDeterminismTest, ProfiledRunBitIdenticalToUnprofiled) {
  ScenarioConfig plain = cfg();
  ScenarioConfig profiled = cfg();
  profiled.prof.enabled = true;
  profiled.prof.histograms = true;

  Scenario sa(plain);
  const RunResult a = sa.run();
  Scenario sb(profiled);
  const RunResult b = sb.run();

  // The full exported metrics object, field for field.
  EXPECT_EQ(telemetry::metricsJson(a.metrics, a.duration),
            telemetry::metricsJson(b.metrics, b.duration));
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
  EXPECT_EQ(a.schedQueuePeak, b.schedQueuePeak);

  // The profiled run actually profiled something.
  EXPECT_FALSE(a.profile.enabled);
  ASSERT_TRUE(b.profile.enabled);
  EXPECT_EQ(b.profile.totalDispatches, b.eventsExecuted);
  EXPECT_GT(b.profile.totalSelfNs, 0u);
  const auto& mac =
      b.profile.categories[static_cast<std::size_t>(prof::Category::kMac)];
  EXPECT_GT(mac.dispatches, 0u);
  EXPECT_GT(mac.selfNs, 0u);

  // The trace streams are identical record for record.
  ASSERT_NE(sa.ring(), nullptr);
  ASSERT_NE(sb.ring(), nullptr);
  const auto ra = sa.ring()->snapshot();
  const auto rb = sb.ring()->snapshot();
  ASSERT_EQ(ra.size(), rb.size());
  ASSERT_LT(ra.size(), sa.ring()->capacity()) << "ring wrapped; grow it";
  std::map<std::uint64_t, std::uint64_t> idsA, idsB;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(telemetry::toJson(canonical(ra[i], idsA)),
              telemetry::toJson(canonical(rb[i], idsB)))
        << "first divergence at record " << i;
  }
}

TEST(ProfDeterminismTest, ProfiledRunBitIdenticalUnderFaults) {
  // Fault injection uses its own RNG stream; the profiler's fault-category
  // scopes and gauge reads must not disturb it either.
  ScenarioConfig plain = cfg();
  plain.fault.churn.fraction = 0.2;
  plain.fault.churn.meanUpTimeSec = 8.0;
  plain.fault.churn.meanDownTimeSec = 2.0;
  plain.fault.scripted = {testing::crashAt(Time::seconds(5), 2),
                          testing::recoverAt(Time::seconds(9), 2)};
  plain.fault.seed = 17;
  ScenarioConfig profiled = plain;
  profiled.prof.enabled = true;

  const RunResult a = runScenario(plain);
  const RunResult b = runScenario(profiled);
  EXPECT_EQ(telemetry::metricsJson(a.metrics, a.duration),
            telemetry::metricsJson(b.metrics, b.duration));
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
  EXPECT_GT(a.metrics.faultNodeCrashes, 0u);
  const auto& fault =
      b.profile.categories[static_cast<std::size_t>(prof::Category::kFault)];
  EXPECT_GT(fault.dispatches, 0u);
}

TEST(ProfDeterminismTest, RunExportCarriesSchedulerCounters) {
  // Queue peak / dispatch totals are in the run JSON even with profiling
  // off (they are tracked unconditionally). The profile itself is written
  // to its own file (ExportTest.ProfiledRunWritesProfileBesideAggregate).
  const RunResult r = runScenario(cfg());
  EXPECT_GT(r.schedQueuePeak, 0u);
  const std::string json = telemetry::runResultJson(r);
  EXPECT_NE(json.find("\"sched_queue_peak\":"), std::string::npos);
  EXPECT_NE(json.find("\"sched_total_dispatched\":"), std::string::npos);
  EXPECT_EQ(json.find("\"profile\":"), std::string::npos);
}

TEST(ProfDeterminismTest, GaugePeaksArePopulated) {
  ScenarioConfig c = cfg();
  c.prof.enabled = true;
  const RunResult r = runScenario(c);
  // Route caches certainly held entries in a 30 s DSR run.
  EXPECT_GT(r.profile.gaugePeaks[static_cast<std::size_t>(
                prof::Gauge::kRouteCacheEntries)],
            0u);
}

}  // namespace
}  // namespace manet::scenario
