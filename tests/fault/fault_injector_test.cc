// FaultInjector semantics: scripted crash/recover, churn, and the strict
// no-op guarantee of an empty plan.
#include "src/fault/fault_injector.h"

#include <gtest/gtest.h>

#include "src/fault/fault_plan.h"
#include "src/traffic/cbr.h"
#include "tests/testing/dsr_fixture.h"
#include "tests/testing/fault_events.h"

namespace manet::fault {
namespace {

using manet::testing::crashAt;
using manet::testing::DsrFixture;
using manet::testing::recoverAt;
using sim::Time;

traffic::CbrSource::Params cbrParams(net::NodeId dst, double pps, Time start,
                                     Time stop) {
  traffic::CbrSource::Params p;
  p.dst = dst;
  p.packetsPerSecond = pps;
  p.start = start;
  p.stop = stop;
  return p;
}

TEST(FaultInjectorTest, EmptyPlanInstallsNothing) {
  DsrFixture fx;
  fx.addLine(2);
  fx.network->installFaults(FaultPlan{}, Time::seconds(10));
  EXPECT_EQ(fx.network->faults(), nullptr);
}

TEST(FaultInjectorTest, EmptyPlanIsBitIdenticalNoOp) {
  const auto runOnce = [](bool install) {
    DsrFixture fx(core::makeVariantConfig(core::Variant::kAll), 7);
    fx.addLine(4);
    if (install) fx.network->installFaults(FaultPlan{}, Time::seconds(20));
    traffic::CbrSource src(fx.dsr(0), fx.network->scheduler(),
                           cbrParams(3, 4.0, Time::millis(1),
                                     Time::seconds(18)));
    fx.run(Time::seconds(20));
    return std::pair{fx.metrics(), fx.network->scheduler().executedCount()};
  };
  const auto [mA, eventsA] = runOnce(false);
  const auto [mB, eventsB] = runOnce(true);
  EXPECT_EQ(mA.dataOriginated, mB.dataOriginated);
  EXPECT_EQ(mA.dataDelivered, mB.dataDelivered);
  EXPECT_EQ(mA.totalDropped(), mB.totalDropped());
  EXPECT_EQ(mA.dataFrameTx, mB.dataFrameTx);
  EXPECT_EQ(mA.rtsTx, mB.rtsTx);
  EXPECT_EQ(eventsA, eventsB);
}

TEST(FaultInjectorTest, CrashedNodeNeitherReceivesNorRecoversAlone) {
  DsrFixture fx;
  fx.addLine(2);
  FaultPlan plan;
  plan.scripted = {crashAt(Time::seconds(5), 1),
                   recoverAt(Time::seconds(15), 1)};
  fx.network->installFaults(plan, Time::seconds(22));
  ASSERT_NE(fx.network->faults(), nullptr);
  traffic::CbrSource src(fx.dsr(0), fx.network->scheduler(),
                         cbrParams(1, 10.0, Time::millis(1),
                                   Time::seconds(20)));
  // The injector reports the node down mid-window, up again after.
  fx.network->scheduler().scheduleAt(Time::seconds(10), [&] {
    EXPECT_FALSE(fx.network->faults()->nodeUp(1));
    EXPECT_FALSE(fx.network->node(1).radio().up());
  });
  fx.run(Time::seconds(22));
  EXPECT_TRUE(fx.network->faults()->nodeUp(1));
  EXPECT_EQ(fx.metrics().faultNodeCrashes, 1u);
  EXPECT_EQ(fx.metrics().faultNodeRecoveries, 1u);
  // ~200 packets offered; the ~10 s outage window must cost roughly half
  // and delivery must resume after recovery (well above the ~50 sent
  // before the crash).
  EXPECT_LT(fx.metrics().dataDelivered, 160u);
  EXPECT_GT(fx.metrics().dataDelivered, 80u);
  EXPECT_LT(fx.metrics().dataDelivered, fx.metrics().dataOriginated);
}

TEST(FaultInjectorTest, CrashFlushesMacQueueAsNodeDownDrops) {
  DsrFixture fx;
  fx.addLine(2);
  FaultPlan plan;
  // Crash the *sender* while its CBR keeps queueing: the MAC queue flush
  // and subsequent sends while down show up as counted drops.
  plan.scripted = {crashAt(Time::seconds(2), 0)};
  fx.network->installFaults(plan, Time::seconds(10));
  traffic::CbrSource src(fx.dsr(0), fx.network->scheduler(),
                         cbrParams(1, 50.0, Time::millis(1),
                                   Time::seconds(9)));
  fx.run(Time::seconds(10));
  EXPECT_EQ(fx.metrics().faultNodeCrashes, 1u);
  // No recovery scheduled: deliveries stop at the crash.
  EXPECT_LT(fx.metrics().dataDelivered, fx.metrics().dataOriginated);
}

TEST(FaultInjectorTest, RecoveryWipesDsrSoftState) {
  DsrFixture fx;
  fx.addLine(3);
  FaultPlan plan;
  plan.churn.wipeCachesOnRecovery = true;
  plan.scripted = {crashAt(Time::seconds(5), 0),
                   recoverAt(Time::seconds(6), 0)};
  fx.network->installFaults(plan, Time::seconds(10));
  // Discover a route first so node 0 has cache state to lose.
  fx.dsr(0).sendData(2, 512, 0, 0);
  fx.network->scheduler().scheduleAt(Time::seconds(4), [&] {
    EXPECT_GT(fx.dsr(0).routeCache().size(), 0u);
  });
  fx.network->scheduler().scheduleAt(Time::seconds(7), [&] {
    EXPECT_EQ(fx.dsr(0).routeCache().size(), 0u);
  });
  fx.run(Time::seconds(10));
  EXPECT_EQ(fx.metrics().faultNodeRecoveries, 1u);
}

TEST(FaultInjectorTest, RecoveryKeepsCachesWhenWipeDisabled) {
  DsrFixture fx;
  fx.addLine(3);
  FaultPlan plan;
  plan.churn.wipeCachesOnRecovery = false;
  plan.scripted = {crashAt(Time::seconds(5), 0),
                   recoverAt(Time::seconds(6), 0)};
  fx.network->installFaults(plan, Time::seconds(10));
  fx.dsr(0).sendData(2, 512, 0, 0);
  fx.network->scheduler().scheduleAt(Time::seconds(7), [&] {
    EXPECT_GT(fx.dsr(0).routeCache().size(), 0u);
  });
  fx.run(Time::seconds(10));
}

TEST(FaultInjectorTest, ChurnGeneratorCyclesNodes) {
  DsrFixture fx;
  fx.addLine(6);
  FaultPlan plan;
  plan.churn.fraction = 0.5;
  plan.churn.meanUpTimeSec = 2.0;
  plan.churn.meanDownTimeSec = 1.0;
  fx.network->installFaults(plan, Time::seconds(30));
  fx.run(Time::seconds(30));
  const auto& m = fx.metrics();
  EXPECT_GT(m.faultNodeCrashes, 0u);
  // Alternation: recoveries can lag crashes by at most the 3 churn nodes
  // left down at the end.
  EXPECT_LE(m.faultNodeRecoveries, m.faultNodeCrashes);
  EXPECT_GE(m.faultNodeRecoveries + 3, m.faultNodeCrashes);
}

TEST(FaultInjectorTest, StochasticGeneratorsAreSeedDeterministic) {
  const auto runOnce = [] {
    DsrFixture fx(core::DsrConfig{}, 5);
    fx.addLine(5);
    FaultPlan plan;
    plan.churn.fraction = 0.4;
    plan.churn.meanUpTimeSec = 3.0;
    plan.churn.meanDownTimeSec = 1.0;
    plan.scripted = {crashAt(Time::seconds(10), 2),
                     recoverAt(Time::seconds(14), 2)};
    plan.seed = 99;
    fx.network->installFaults(plan, Time::seconds(40));
    traffic::CbrSource src(fx.dsr(0), fx.network->scheduler(),
                           cbrParams(4, 3.0, Time::millis(1),
                                     Time::seconds(38)));
    fx.run(Time::seconds(40));
    return std::tuple{fx.metrics().faultNodeCrashes,
                      fx.metrics().faultNodeRecoveries,
                      fx.metrics().dropNodeDown,
                      fx.metrics().dataDelivered,
                      fx.network->scheduler().executedCount()};
  };
  const auto a = runOnce();
  EXPECT_EQ(a, runOnce());
  EXPECT_GT(std::get<0>(a), 1u);  // churn crashes on top of the scripted one
  EXPECT_GT(std::get<1>(a), 0u);
}

}  // namespace
}  // namespace manet::fault
