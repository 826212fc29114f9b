// Causal-layer acceptance tests over full simulation runs:
//  * every stale-route drop in a churn-heavy run must be attributable to
//    the cache insertion that supplied the failed route (the tentpole's
//    100%-attribution criterion),
//  * attaching trace sinks (JSONL + ring) must leave the simulation
//    bit-identical to an untraced run,
//  * the offline Perfetto timeline of a churn run's trace must hold every
//    record, one track per traced node and every crash and recovery,
//  * causal chains reconstructed from per-run traces must be byte-identical
//    whether the sweep ran with 1 worker or 4.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/scenario/sweep.h"
#include "src/telemetry/causal.h"
#include "src/telemetry/export.h"
#include "src/telemetry/perfetto.h"
#include "src/telemetry/trace_reader.h"
#include "src/util/json.h"

namespace manet {
namespace {

using sim::Time;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Congested + churning: stale cache hits, link failures, and negative
/// cache activity all occur, so the attribution report has real rows.
scenario::ScenarioConfig churnScenario() {
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
  cfg.fault.churn.fraction = 0.2;
  cfg.fault.churn.meanUpTimeSec = 10.0;
  cfg.fault.churn.meanDownTimeSec = 3.0;
  return cfg;
}

TEST(CausalAttributionTest, ChurnRunAttributesEveryStaleDrop) {
  const std::string path = ::testing::TempDir() + "/causal_churn.jsonl";
  std::remove(path.c_str());

  scenario::ScenarioConfig cfg = churnScenario();
  cfg.telemetry.traceJsonlPath = path;
  const scenario::RunResult r = scenario::runScenario(cfg);

  auto read = telemetry::readTraceFile(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->errors.empty()) << read->errors.front();

  const telemetry::CausalIndex idx(std::move(read->records));
  const telemetry::StaleReport rep = idx.staleReport();

  // The scenario must actually produce stale-route drops...
  EXPECT_GT(rep.staleDrops, 0u);
  // ...and every single one must carry the provenance of the cache entry
  // that routed it onto the dead link (the tentpole acceptance criterion).
  EXPECT_EQ(rep.attributed, rep.staleDrops);
  EXPECT_GT(rep.distinctEntries, 0u);
  EXPECT_FALSE(rep.rows.empty());

  // The per-origin invalid-hit metrics see the same world: some origin
  // accumulated invalid hits during this run.
  std::uint64_t originTotal = 0;
  for (std::uint64_t n : r.metrics.invalidCacheHitsByOrigin) originTotal += n;
  EXPECT_EQ(originTotal, r.metrics.invalidCacheHits);

  std::remove(path.c_str());
}

TEST(CausalAttributionTest, TracedRunIsBitIdenticalToUntraced) {
  const std::string jsonl = ::testing::TempDir() + "/causal_bitid.jsonl";
  std::remove(jsonl.c_str());

  scenario::ScenarioConfig cfg = churnScenario();
  cfg.duration = Time::seconds(30);
  const scenario::RunResult bare = scenario::runScenario(cfg);

  scenario::ScenarioConfig traced = cfg;
  traced.telemetry.traceJsonlPath = jsonl;
  traced.telemetry.ringCapacity = 4096;
  const scenario::RunResult full = scenario::runScenario(traced);

  // Tracing is purely observational: same metrics, same event count.
  EXPECT_EQ(telemetry::metricsJson(bare.metrics, bare.duration),
            telemetry::metricsJson(full.metrics, full.duration));
  EXPECT_EQ(bare.eventsExecuted, full.eventsExecuted);

  std::remove(jsonl.c_str());
}

TEST(CausalAttributionTest, OfflineTimelineHoldsEveryRecordAndFault) {
  const std::string jsonl = ::testing::TempDir() + "/causal_timeline.jsonl";
  const std::string timeline = ::testing::TempDir() + "/causal_timeline.json";
  std::remove(jsonl.c_str());
  std::remove(timeline.c_str());

  scenario::ScenarioConfig cfg = churnScenario();
  cfg.duration = Time::seconds(30);
  cfg.telemetry.traceJsonlPath = jsonl;
  const scenario::RunResult r = scenario::runScenario(cfg);
  ASSERT_GT(r.metrics.faultNodeCrashes, 0u);

  auto read = telemetry::readTraceFile(jsonl);
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(read->errors.empty()) << read->errors.front();
  const std::vector<telemetry::CausalRecord>& records = read->records;
  ASSERT_FALSE(records.empty());
  std::set<net::NodeId> tracedNodes;
  for (const telemetry::CausalRecord& rec : records) {
    tracedNodes.insert(rec.node);
  }

  // One instant per record, one process_name, one thread_name per node
  // that has a record.
  const long written = telemetry::convertToPerfetto(records, timeline);
  EXPECT_EQ(written, static_cast<long>(records.size() + 1 +
                                       tracedNodes.size()));

  std::string err;
  const auto doc = util::parseJson(slurp(timeline), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->isArray());
  EXPECT_EQ(doc->asArray().size(), static_cast<std::size_t>(written));
  std::set<net::NodeId> namedTracks;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  for (const util::JsonValue& ev : doc->asArray()) {
    const std::string name = ev.stringAt("name");
    if (name == "thread_name") {
      EXPECT_TRUE(
          namedTracks.insert(static_cast<net::NodeId>(ev.numberAt("tid")))
              .second)
          << "track named twice";
    } else if (ev.stringAt("s") == "g") {
      if (name == "node_crash") ++crashes;
      if (name == "node_recover") ++recoveries;
    }
  }
  EXPECT_EQ(namedTracks, tracedNodes);
  EXPECT_EQ(crashes, r.metrics.faultNodeCrashes);
  EXPECT_EQ(recoveries, r.metrics.faultNodeRecoveries);

  std::remove(jsonl.c_str());
  std::remove(timeline.c_str());
}

TEST(CausalAttributionTest, CausalChainsAreIdenticalAcrossSweepJobCounts) {
  namespace fs = std::filesystem;
  const std::string dirA = ::testing::TempDir() + "/causal_jobs1";
  const std::string dirB = ::testing::TempDir() + "/causal_jobs4";
  fs::create_directories(dirA);
  fs::create_directories(dirB);

  scenario::ScenarioConfig base = churnScenario();
  base.duration = Time::seconds(20);

  const auto runWithJobs = [&](const std::string& dir, int jobs) {
    scenario::ScenarioConfig cfg = base;
    cfg.telemetry.traceJsonlPath = dir + "/trace.jsonl";
    scenario::ExperimentPlan plan("jobs_test", cfg);
    plan.axis(
        "pause_s", {0.0},
        [](scenario::ScenarioConfig& c, double p) {
          c.pause = Time::fromSeconds(p);
        },
        /*labelPrecision=*/0);
    scenario::RunnerOptions opts;
    opts.replications = 2;
    opts.jobs = jobs;
    scenario::runPlan(plan, opts);
  };
  runWithJobs(dirA, 1);
  runWithJobs(dirB, 4);

  for (int rep = 0; rep < 2; ++rep) {
    const std::string suffix = "/trace.r" + std::to_string(rep) + ".jsonl";
    auto a = telemetry::readTraceFile(dirA + suffix);
    auto b = telemetry::readTraceFile(dirB + suffix);
    ASSERT_TRUE(a.has_value()) << dirA + suffix;
    ASSERT_TRUE(b.has_value()) << dirB + suffix;
    ASSERT_GT(a->records.size(), 0u);
    // The raw per-run traces are byte-identical across worker counts...
    EXPECT_EQ(slurp(dirA + suffix), slurp(dirB + suffix)) << "rep " << rep;

    // ...and so is every rendered causal chain and the attribution report.
    const telemetry::CausalIndex ia(std::move(a->records));
    const telemetry::CausalIndex ib(std::move(b->records));
    EXPECT_EQ(ia.staleReport().render(), ib.staleReport().render());
    int compared = 0;
    for (const telemetry::CausalRecord& r : ia.records()) {
      if (r.cause == 0 || compared >= 25) continue;
      ++compared;
      EXPECT_EQ(ia.renderChain(r.uid), ib.renderChain(r.uid));
    }
    EXPECT_GT(compared, 0) << "trace has no derived packets to compare";
  }

  fs::remove_all(dirA);
  fs::remove_all(dirB);
}

}  // namespace
}  // namespace manet
