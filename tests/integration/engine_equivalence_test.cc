// Engine-core equivalence: the neighbor index is the one swappable
// hot-path machine and a pure performance knob. The full scan is the
// reference; with the grid selected a run must stay byte-identical: same
// metrics, same event count, same trace contents.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/scenario/scenario.h"
#include "tests/testing/fault_events.h"

namespace manet::scenario {
namespace {

using sim::Time;

ScenarioConfig baseCfg() {
  ScenarioConfig c;
  c.numNodes = 20;
  c.field = {900.0, 450.0};
  c.numFlows = 5;
  c.packetsPerSecond = 2.0;
  c.duration = Time::seconds(25);
  c.mobilitySeed = 7;
  c.telemetry = telemetry::TelemetryConfig{};
  c.telemetry.ringCapacity = 300000;
  c.fault = {};
  c.prof = {};
  return c;
}

struct Capture {
  RunResult result;
  std::vector<std::string> trace;  // canonicalized ring records
};

Capture run(const std::function<void(ScenarioConfig&)>& mutate) {
  ScenarioConfig c = baseCfg();
  mutate(c);
  Scenario s(c);
  Capture cap{s.run(), {}};
  // Canonicalize uids to first-appearance order, as the determinism tests
  // do (uid counters are thread-local, not scenario-local, under sweeps).
  std::map<std::uint64_t, std::uint64_t> ids;
  const auto ring = s.ring()->snapshot();
  EXPECT_LT(ring.size(), s.ring()->capacity()) << "ring wrapped; grow it";
  for (telemetry::TraceRecord r : ring) {
    if (r.uid != 0) {
      r.uid = ids.emplace(r.uid, ids.size() + 1).first->second;
    }
    cap.trace.push_back(telemetry::toJson(r));
  }
  return cap;
}

void expectIdentical(const Capture& a, const Capture& b) {
  EXPECT_EQ(a.result.eventsExecuted, b.result.eventsExecuted);
  EXPECT_EQ(a.result.metrics.dataOriginated, b.result.metrics.dataOriginated);
  EXPECT_EQ(a.result.metrics.dataDelivered, b.result.metrics.dataDelivered);
  EXPECT_EQ(a.result.metrics.delaySumSec, b.result.metrics.delaySumSec);
  EXPECT_EQ(a.result.metrics.totalDropped(), b.result.metrics.totalDropped());
  EXPECT_EQ(a.result.metrics.rreqTx, b.result.metrics.rreqTx);
  EXPECT_EQ(a.result.metrics.rrepTx, b.result.metrics.rrepTx);
  EXPECT_EQ(a.result.metrics.rerrTx, b.result.metrics.rerrTx);
  EXPECT_EQ(a.result.metrics.cacheHits, b.result.metrics.cacheHits);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i], b.trace[i]) << "first divergence at record " << i;
  }
}

TEST(EngineEquivalenceTest, ScanAndGridDeliverByteIdenticalRuns) {
  const Capture scan =
      run([](ScenarioConfig& c) { c.phy.neighborIndex = phy::NeighborIndexKind::kScan; });
  const Capture grid =
      run([](ScenarioConfig& c) { c.phy.neighborIndex = phy::NeighborIndexKind::kGrid; });
  EXPECT_GT(scan.result.metrics.dataDelivered, 0u);
  expectIdentical(scan, grid);
}

TEST(EngineEquivalenceTest, ScanAndGridAgreeUnderFaults) {
  // Pause 0 keeps every radio moving, so the grid advances cached pieces
  // all run long. Churn and scripted crashes take radios off the air and
  // back while both indexes keep answering for them.
  const auto faults = [](ScenarioConfig& c) {
    c.pause = Time::zero();
    c.fault.churn.fraction = 0.2;
    c.fault.churn.meanUpTimeSec = 8.0;
    c.fault.churn.meanDownTimeSec = 3.0;
    for (net::NodeId id : {1u, 6u, 11u}) {
      c.fault.scripted.push_back(testing::crashAt(Time::seconds(4), id));
      c.fault.scripted.push_back(testing::recoverAt(Time::seconds(12), id));
    }
  };
  const Capture scan = run([&](ScenarioConfig& c) {
    faults(c);
    c.phy.neighborIndex = phy::NeighborIndexKind::kScan;
  });
  const Capture grid = run([&](ScenarioConfig& c) {
    faults(c);
    c.phy.neighborIndex = phy::NeighborIndexKind::kGrid;
  });
  EXPECT_GT(scan.result.metrics.dataDelivered, 0u);
  EXPECT_GT(scan.result.metrics.faultNodeCrashes, 0u);
  EXPECT_GT(scan.result.metrics.faultNodeRecoveries, 0u);
  expectIdentical(scan, grid);
}

}  // namespace
}  // namespace manet::scenario
