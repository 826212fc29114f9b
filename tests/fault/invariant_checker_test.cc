// InvariantChecker: synthetic records trigger each violation class, and
// real faulted scenarios pass with zero violations (the acceptance bar).
#include "src/fault/invariant_checker.h"

#include <gtest/gtest.h>

#include <string>

#include "src/core/dsr_config.h"
#include "src/scenario/scenario.h"
#include "tests/testing/fault_events.h"

namespace manet::fault {
namespace {

using sim::Time;
using telemetry::DropReason;
using telemetry::TraceEvent;
using telemetry::TraceRecord;

TraceRecord rec(TraceEvent event, Time at, net::NodeId node = 0,
                std::uint64_t uid = 0) {
  TraceRecord r;
  r.at = at;
  r.event = event;
  r.node = node;
  r.uid = uid;
  r.kind = net::PacketKind::kData;
  return r;
}

bool anyViolationMentions(const InvariantChecker& c, const std::string& s) {
  for (const auto& v : c.violations()) {
    if (v.find(s) != std::string::npos) return true;
  }
  return false;
}

TEST(InvariantCheckerTest, CleanLifecyclePasses) {
  InvariantChecker c(4);
  c.record(rec(TraceEvent::kPktOriginate, Time::seconds(1), 0, 42));
  c.record(rec(TraceEvent::kPktForward, Time::seconds(2), 1, 42));
  c.record(rec(TraceEvent::kPktDeliver, Time::seconds(3), 2, 42));
  EXPECT_TRUE(c.violations().empty());
  EXPECT_EQ(c.recordsChecked(), 3u);
}

TEST(InvariantCheckerTest, FlagsTimeGoingBackwards) {
  InvariantChecker c(4);
  c.record(rec(TraceEvent::kPktOriginate, Time::seconds(5), 0, 1));
  c.record(rec(TraceEvent::kPktForward, Time::seconds(4), 1, 1));
  EXPECT_TRUE(anyViolationMentions(c, "time went backwards"));
}

TEST(InvariantCheckerTest, FlagsDropWithoutReason) {
  InvariantChecker c(4);
  c.record(rec(TraceEvent::kPktOriginate, Time::seconds(1), 0, 1));
  c.record(rec(TraceEvent::kPktDrop, Time::seconds(2), 0, 1));
  EXPECT_TRUE(anyViolationMentions(c, "drop record without a reason"));
}

TEST(InvariantCheckerTest, FlagsReasonOnNonDropRecord) {
  InvariantChecker c(4);
  TraceRecord r = rec(TraceEvent::kPktOriginate, Time::seconds(1), 0, 1);
  r.reason = DropReason::kIfqFull;
  c.record(r);
  EXPECT_TRUE(anyViolationMentions(c, "carries drop reason"));
}

TEST(InvariantCheckerTest, FlagsDuplicateOrigination) {
  InvariantChecker c(4);
  c.record(rec(TraceEvent::kPktOriginate, Time::seconds(1), 0, 7));
  c.record(rec(TraceEvent::kPktOriginate, Time::seconds(2), 0, 7));
  EXPECT_TRUE(anyViolationMentions(c, "originated twice"));
}

TEST(InvariantCheckerTest, FlagsForwardBeforeOrigination) {
  InvariantChecker c(4);
  c.record(rec(TraceEvent::kPktForward, Time::seconds(1), 1, 9));
  EXPECT_TRUE(anyViolationMentions(c, "before its origination"));
}

TEST(InvariantCheckerTest, FlagsCrashRecoverAlternationBreaks) {
  InvariantChecker c(4);
  c.record(rec(TraceEvent::kNodeCrash, Time::seconds(1), 2));
  c.record(rec(TraceEvent::kNodeCrash, Time::seconds(2), 2));
  EXPECT_TRUE(anyViolationMentions(c, "crashed while already down"));

  InvariantChecker c2(4);
  c2.record(rec(TraceEvent::kNodeRecover, Time::seconds(1), 2));
  EXPECT_TRUE(anyViolationMentions(c2, "recovered while already up"));
}

TEST(InvariantCheckerTest, FlagsDownNodeActivity) {
  InvariantChecker c(4);
  c.record(rec(TraceEvent::kPktOriginate, Time::seconds(1), 0, 5));
  c.record(rec(TraceEvent::kNodeCrash, Time::seconds(2), 1));
  c.record(rec(TraceEvent::kPktForward, Time::seconds(3), 1, 5));
  EXPECT_TRUE(anyViolationMentions(c, "down node 1"));
}

TEST(InvariantCheckerTest, FinalCheckCatchesCounterDrift) {
  InvariantChecker c(4);
  c.record(rec(TraceEvent::kPktOriginate, Time::seconds(1), 0, 1));
  metrics::Metrics m;
  m.dataOriginated = 2;  // one more than traced
  c.finalCheck(m);
  EXPECT_TRUE(anyViolationMentions(c, "originations"));
}

TEST(InvariantCheckerTest, FinalCheckPassesWhenReconciled) {
  InvariantChecker c(4);
  c.record(rec(TraceEvent::kPktOriginate, Time::seconds(1), 0, 1));
  c.record(rec(TraceEvent::kPktDeliver, Time::seconds(2), 1, 1));
  c.record(rec(TraceEvent::kNodeCrash, Time::seconds(3), 2));
  metrics::Metrics m;
  m.dataOriginated = 1;
  m.dataDelivered = 1;
  m.faultNodeCrashes = 1;
  c.finalCheck(m);
  EXPECT_TRUE(c.violations().empty()) << c.violations().front();
}

// ---- acceptance: faulted scenarios run checked with zero violations ----

scenario::ScenarioConfig churnScenario(const core::DsrConfig& dsr) {
  scenario::ScenarioConfig cfg;
  cfg.numNodes = 20;
  cfg.field = {800.0, 400.0};
  cfg.numFlows = 5;
  cfg.packetsPerSecond = 2.0;
  cfg.duration = Time::seconds(60);
  cfg.mobilitySeed = 3;
  cfg.dsr = dsr;
  cfg.telemetry = telemetry::TelemetryConfig{};
  cfg.fault = {};
  cfg.fault.churn.fraction = 0.1;  // the issue's 10% / 30 s churn profile
  cfg.fault.churn.meanUpTimeSec = 30.0;
  cfg.fault.churn.meanDownTimeSec = 5.0;
  cfg.invariantChecks = true;
  return cfg;
}

class CheckedChurnTest : public ::testing::TestWithParam<core::Variant> {};

TEST_P(CheckedChurnTest, RunsWithZeroViolations) {
  scenario::Scenario s(churnScenario(core::makeVariantConfig(GetParam())));
  scenario::RunResult r;
  ASSERT_NO_THROW(r = s.run()) << "variant " << core::toString(GetParam());
  ASSERT_NE(s.checker(), nullptr);
  EXPECT_TRUE(s.checker()->violations().empty());
  EXPECT_GT(s.checker()->recordsChecked(), 0u);
  EXPECT_GT(r.metrics.faultNodeCrashes, 0u);
  EXPECT_GT(r.metrics.dataDelivered, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CacheStrategies, CheckedChurnTest,
    ::testing::Values(core::Variant::kWiderError, core::Variant::kAdaptiveExpiry,
                      core::Variant::kNegCache),
    [](const ::testing::TestParamInfo<core::Variant>& paramInfo) {
      return core::toString(paramInfo.param);
    });

TEST(InvariantCheckerTest, AllFaultClassesTogetherStayConsistent) {
  auto cfg = churnScenario(core::makeVariantConfig(core::Variant::kAll));
  cfg.duration = Time::seconds(40);
  cfg.fault.churn.fraction = 0.3;
  cfg.fault.churn.meanUpTimeSec = 8.0;
  cfg.fault.churn.meanDownTimeSec = 2.0;
  // Scripted crashes and recoveries on top of churn, including a repeated
  // crash and a recovery of a node that is already up (both no-ops).
  for (net::NodeId id = 0; id < 20; id += 4) {
    cfg.fault.scripted.push_back(testing::crashAt(Time::seconds(5), id));
    cfg.fault.scripted.push_back(testing::crashAt(Time::seconds(7), id));
    cfg.fault.scripted.push_back(testing::recoverAt(Time::seconds(12), id));
    cfg.fault.scripted.push_back(testing::recoverAt(Time::seconds(13), id));
  }
  scenario::Scenario s(cfg);
  scenario::RunResult r;
  ASSERT_NO_THROW(r = s.run());
  EXPECT_TRUE(s.checker()->violations().empty());
  EXPECT_GE(r.metrics.faultNodeCrashes, 5u);
  EXPECT_GT(r.metrics.faultNodeRecoveries, 0u);
}

TEST(InvariantCheckerTest, EnvKnobParsesZeroAndOne) {
  ::setenv("MANET_CHECK", "1", 1);
  EXPECT_TRUE(InvariantChecker::enabledFromEnv());
  ::setenv("MANET_CHECK", "0", 1);
  EXPECT_FALSE(InvariantChecker::enabledFromEnv());
  ::unsetenv("MANET_CHECK");
  EXPECT_FALSE(InvariantChecker::enabledFromEnv());
}

}  // namespace
}  // namespace manet::fault
