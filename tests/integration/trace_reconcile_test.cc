// The telemetry acceptance test: a JSONL trace of a full run must reconcile
// EXACTLY with the aggregate Metrics counters — every counted drop has a
// trace record with the matching reason, every origination and delivery has
// its lifecycle event. This pins the trace hooks to the counter-increment
// sites; if either side moves, this test fails.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "src/scenario/scenario.h"
#include "src/telemetry/trace_reader.h"
#include "tests/testing/fault_events.h"

namespace manet {
namespace {

using sim::Time;

/// Small but deliberately congested: few nodes relative to the flow count
/// and rate, moderate mobility, so send-buffer, IFQ, negative-cache, and
/// link-failure drops all occur.
scenario::ScenarioConfig congestedScenario() {
  scenario::ScenarioConfig cfg;
  cfg.numNodes = 20;
  cfg.field = {900.0, 450.0};
  cfg.numFlows = 10;
  cfg.packetsPerSecond = 6.0;
  cfg.maxSpeed = 20.0;
  cfg.duration = Time::seconds(60);
  cfg.mobilitySeed = 3;
  cfg.telemetry = telemetry::TelemetryConfig{};  // env-independent
  cfg.fault = {};
  return cfg;
}

struct TraceCounts {
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  std::map<std::string, std::uint64_t> dropsByReason;
  std::uint64_t lines = 0;
};

TEST(TraceReconcileTest, JsonlDropCountsMatchMetricsExactly) {
  const std::string path =
      ::testing::TempDir() + "/reconcile_trace.jsonl";
  std::remove(path.c_str());

  scenario::ScenarioConfig cfg = congestedScenario();
  cfg.telemetry.traceJsonlPath = path;
  const scenario::RunResult r = scenario::runScenario(cfg);
  const metrics::Metrics& m = r.metrics;

  const auto read = telemetry::readTraceFile(path);
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(read->errors.empty()) << read->errors.front();
  ASSERT_GT(read->records.size(), 0u);

  TraceCounts c;
  for (const telemetry::CausalRecord& rec : read->records) {
    ++c.lines;
    if (rec.event == "pkt_originate") {
      ++c.originated;
    } else if (rec.event == "pkt_deliver") {
      ++c.delivered;
    } else if (rec.event == "pkt_forward") {
      ++c.forwarded;
    } else if (rec.event == "pkt_drop") {
      ASSERT_FALSE(rec.reason.empty()) << "drop at t=" << rec.t;
      ++c.dropsByReason[rec.reason];
    }
  }

  // Lifecycle events reconcile one-to-one with the data-plane counters.
  EXPECT_EQ(c.originated, m.dataOriginated);
  EXPECT_EQ(c.delivered, m.dataDelivered);

  // Every drop reason reconciles exactly with its Metrics counter.
  EXPECT_EQ(c.dropsByReason["send_buffer_timeout"], m.dropSendBufferTimeout);
  EXPECT_EQ(c.dropsByReason["send_buffer_overflow"], m.dropSendBufferOverflow);
  EXPECT_EQ(c.dropsByReason["ifq_full"], m.dropIfqFull);
  EXPECT_EQ(c.dropsByReason["link_fail_no_salvage"], m.dropLinkFailNoSalvage);
  EXPECT_EQ(c.dropsByReason["negative_cache"], m.dropNegativeCache);
  EXPECT_EQ(c.dropsByReason["ttl_expired"], m.dropTtlExpired);
  EXPECT_EQ(c.dropsByReason["mac_duplicate"], m.dropMacDuplicate);

  // No unknown reason slipped in.
  std::uint64_t tracedDrops = 0;
  for (const auto& [reason, n] : c.dropsByReason) tracedDrops += n;
  EXPECT_EQ(tracedDrops, m.totalDropped());

  // The scenario is congested enough to exercise the interesting reasons;
  // a quiet network would make the equalities above vacuous.
  EXPECT_GT(m.totalDropped(), 0u);
  EXPECT_GT(m.dataDelivered, 0u);
  EXPECT_GT(c.forwarded, 0u);

  std::remove(path.c_str());
}

TEST(TraceReconcileTest, FaultedRunReconcilesIncludingNodeDownDrops) {
  const std::string path =
      ::testing::TempDir() + "/reconcile_fault_trace.jsonl";
  std::remove(path.c_str());

  scenario::ScenarioConfig cfg = congestedScenario();
  cfg.telemetry.traceJsonlPath = path;
  cfg.fault.churn.fraction = 0.2;
  cfg.fault.churn.meanUpTimeSec = 10.0;
  cfg.fault.churn.meanDownTimeSec = 3.0;
  // A scripted crash of a busy relay on top of churn.
  cfg.fault.scripted = {testing::crashAt(Time::seconds(20), 5),
                        testing::recoverAt(Time::seconds(30), 5)};
  const scenario::RunResult r = scenario::runScenario(cfg);
  const metrics::Metrics& m = r.metrics;

  const auto read = telemetry::readTraceFile(path);
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(read->errors.empty()) << read->errors.front();

  std::map<std::string, std::uint64_t> dropsByReason;
  std::uint64_t crashes = 0, recoveries = 0;
  for (const telemetry::CausalRecord& rec : read->records) {
    if (rec.event == "pkt_drop") {
      ASSERT_FALSE(rec.reason.empty()) << "drop at t=" << rec.t;
      ++dropsByReason[rec.reason];
    } else if (rec.event == "node_crash") {
      ++crashes;
    } else if (rec.event == "node_recover") {
      ++recoveries;
    }
  }

  // The new drop reason and fault events reconcile exactly with metrics.
  EXPECT_EQ(dropsByReason["node_down"], m.dropNodeDown);
  EXPECT_EQ(crashes, m.faultNodeCrashes);
  EXPECT_EQ(recoveries, m.faultNodeRecoveries);
  std::uint64_t tracedDrops = 0;
  for (const auto& [reason, n] : dropsByReason) tracedDrops += n;
  EXPECT_EQ(tracedDrops, m.totalDropped());

  // The churn profile must actually exercise the fault machinery.
  EXPECT_GT(m.faultNodeCrashes, 0u);
  EXPECT_GT(m.dataDelivered, 0u);

  std::remove(path.c_str());
}

TEST(TraceReconcileTest, CacheEventsArePresentAndConsistent) {
  const std::string path =
      ::testing::TempDir() + "/reconcile_cache_trace.jsonl";
  std::remove(path.c_str());

  scenario::ScenarioConfig cfg = congestedScenario();
  cfg.telemetry.traceJsonlPath = path;
  const scenario::RunResult r = scenario::runScenario(cfg);

  const auto read = telemetry::readTraceFile(path);
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(read->errors.empty()) << read->errors.front();

  std::uint64_t hits = 0, linkBreaks = 0, negInserts = 0, rerrs = 0;
  for (const telemetry::CausalRecord& rec : read->records) {
    if (rec.event == "cache_hit") ++hits;
    if (rec.event == "link_break") ++linkBreaks;
    if (rec.event == "neg_cache_insert") ++negInserts;
    if (rec.event == "rerr_originate") ++rerrs;
  }
  EXPECT_EQ(hits, r.metrics.cacheHits);
  EXPECT_EQ(linkBreaks, r.metrics.linkBreaksDetected);
  EXPECT_EQ(negInserts, r.metrics.negCacheInsertions);
  EXPECT_GT(rerrs, 0u);

  std::remove(path.c_str());
}

TEST(TraceReconcileTest, RingSinkSeesTheSameStreamAsJsonl) {
  const std::string path =
      ::testing::TempDir() + "/reconcile_ring_trace.jsonl";
  std::remove(path.c_str());

  scenario::ScenarioConfig cfg = congestedScenario();
  cfg.duration = Time::seconds(20);
  cfg.telemetry.traceJsonlPath = path;
  cfg.telemetry.ringCapacity = 4096;  // totalRecorded() counts past capacity
  scenario::Scenario scn(cfg);
  scn.run();

  ASSERT_NE(scn.ring(), nullptr);
  const auto read = telemetry::readTraceFile(path);
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(read->errors.empty()) << read->errors.front();
  EXPECT_EQ(scn.ring()->totalRecorded(), read->records.size());

  std::remove(path.c_str());
}

}  // namespace
}  // namespace manet
