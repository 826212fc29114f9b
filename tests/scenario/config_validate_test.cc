// Fail-fast validation: every rejected knob produces an actionable message.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/fault/fault_plan.h"
#include "src/scenario/scenario.h"

namespace manet {
namespace {

using scenario::ScenarioConfig;

// A small but fully valid baseline the tests perturb one knob at a time.
ScenarioConfig validConfig() {
  ScenarioConfig cfg;
  cfg.numNodes = 10;
  cfg.numFlows = 2;
  cfg.duration = sim::Time::seconds(10);
  cfg.fault = {};  // independent of MANET_FAULT_* in the test environment
  cfg.telemetry = telemetry::TelemetryConfig{};
  return cfg;
}

// Expect validate() to throw std::invalid_argument mentioning `expected`.
void expectRejected(const ScenarioConfig& cfg, const std::string& expected) {
  try {
    cfg.validate();
    FAIL() << "config accepted; expected rejection mentioning \"" << expected
           << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(ScenarioConfigValidate, AcceptsDefaultsAndBaseline) {
  EXPECT_NO_THROW(validConfig().validate());
  ScenarioConfig defaults;
  defaults.fault = {};
  EXPECT_NO_THROW(defaults.validate());
}

TEST(ScenarioConfigValidate, RejectsNonPositiveNodeCount) {
  auto cfg = validConfig();
  cfg.numNodes = 0;
  expectRejected(cfg, "numNodes must be > 0");
}

TEST(ScenarioConfigValidate, RejectsDegenerateField) {
  auto cfg = validConfig();
  cfg.field = {0.0, 600.0};
  expectRejected(cfg, "field dimensions must be > 0");
}

TEST(ScenarioConfigValidate, RejectsNegativeMinSpeed) {
  auto cfg = validConfig();
  cfg.minSpeed = -1.0;
  expectRejected(cfg, "minSpeed must be >= 0");
}

TEST(ScenarioConfigValidate, RejectsSpeedRangeInversion) {
  auto cfg = validConfig();
  cfg.minSpeed = 5.0;
  cfg.maxSpeed = 1.0;
  expectRejected(cfg, "maxSpeed must be > 0 and >= minSpeed");
}

TEST(ScenarioConfigValidate, RejectsMoreFlowsThanOrderablePairs) {
  auto cfg = validConfig();
  cfg.numNodes = 3;
  cfg.numFlows = 7;  // 3 * 2 = 6 orderable pairs
  expectRejected(cfg, "orderable src/dst pairs");
}

TEST(ScenarioConfigValidate, RejectsNonPositiveRate) {
  auto cfg = validConfig();
  cfg.packetsPerSecond = 0.0;
  expectRejected(cfg, "packetsPerSecond must be > 0");
}

TEST(ScenarioConfigValidate, RejectsNonPositiveDuration) {
  auto cfg = validConfig();
  cfg.duration = sim::Time::zero();
  expectRejected(cfg, "duration must be > 0");
}

TEST(ScenarioConfigValidate, RejectsBadDsrCacheCapacity) {
  auto cfg = validConfig();
  cfg.dsr.routeCacheCapacity = 0;
  expectRejected(cfg, "dsr config: routeCacheCapacity must be > 0");
  cfg.dsr.routeCacheCapacity = 65536;  // above the path index's 16 bits
  expectRejected(cfg,
                 "dsr config: routeCacheCapacity must be <= 65535 for the "
                 "path cache");
  cfg.dsr.cacheStructure = core::CacheStructure::kLink;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ScenarioConfigValidate, RejectsBadDsrSendBuffer) {
  auto cfg = validConfig();
  cfg.dsr.sendBufferCapacity = 0;
  expectRejected(cfg, "dsr config: sendBufferCapacity must be > 0");
  cfg = validConfig();
  cfg.dsr.sendBufferTimeout = sim::Time::zero();
  expectRejected(cfg, "dsr config: sendBufferTimeout must be > 0");
}

TEST(ScenarioConfigValidate, RejectsBadAdaptiveExpiryKnobs) {
  auto cfg = validConfig();
  cfg.dsr.expiry = core::ExpiryMode::kAdaptive;
  cfg.dsr.adaptiveAlpha = 0.0;
  expectRejected(cfg, "dsr config: adaptiveAlpha must be > 0");
}

TEST(ScenarioConfigValidate, RejectsBadStaticExpiryTimeout) {
  auto cfg = validConfig();
  cfg.dsr.expiry = core::ExpiryMode::kStatic;
  cfg.dsr.staticTimeout = sim::Time::zero();
  expectRejected(cfg, "dsr config: staticTimeout must be > 0");
}

TEST(ScenarioConfigValidate, RejectsBadNegativeCacheKnobs) {
  auto cfg = validConfig();
  cfg.dsr.negativeCache = true;
  cfg.dsr.negCacheCapacity = 0;
  expectRejected(cfg, "dsr config: negCacheCapacity must be > 0");
  cfg = validConfig();
  cfg.dsr.negativeCache = true;
  cfg.dsr.negCacheTtl = sim::Time::zero();
  expectRejected(cfg, "dsr config: negCacheTtl must be > 0");
}

TEST(ScenarioConfigValidate, RejectsBackoffInversion) {
  auto cfg = validConfig();
  cfg.dsr.requestBackoffInitial = sim::Time::seconds(20);
  cfg.dsr.requestBackoffMax = sim::Time::seconds(10);
  expectRejected(cfg, "requestBackoffMax must be >= requestBackoffInitial");
}

// ---- FaultPlan validation (via ScenarioConfig::validate) ----

TEST(FaultPlanValidate, RejectsChurnFractionOutOfRange) {
  auto cfg = validConfig();
  cfg.fault.churn.fraction = 1.5;
  expectRejected(cfg, "fault plan: churn.fraction");
}

TEST(FaultPlanValidate, RejectsNonPositiveChurnTimes) {
  auto cfg = validConfig();
  cfg.fault.churn.fraction = 0.1;
  cfg.fault.churn.meanUpTimeSec = 0.0;
  expectRejected(cfg, "fault plan: churn.meanUpTimeSec");
}

TEST(FaultPlanValidate, RejectsScriptedEventNodeOutOfRange) {
  auto cfg = validConfig();
  fault::FaultEvent ev;
  ev.kind = fault::FaultKind::kNodeCrash;
  ev.at = sim::Time::seconds(1);
  ev.node = 99;  // numNodes is 10
  cfg.fault.scripted.push_back(ev);
  expectRejected(cfg, "fault plan:");
}

TEST(FaultPlanValidate, EmptyPlanIsEmpty) {
  fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.churn.fraction = 0.1;
  EXPECT_FALSE(plan.empty());
}

}  // namespace
}  // namespace manet
