// Every registered bench plan keeps the runner's determinism contract end
// to end: the same tables, byte for byte, serially and on four workers.
// This covers the plans whose per-run state lives outside the aggregate
// (tcp_extension's runFn counters, fault_sweep's onRun crash counts).
#include "src/scenario/plans.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace manet::scenario {
namespace {

TEST(PlanRegistryTest, NamesAreUnique) {
  std::set<std::string> names;
  for (const PlanEntry& e : planRegistry()) {
    EXPECT_TRUE(names.insert(e.name).second) << e.name;
  }
  EXPECT_FALSE(names.empty());
}

/// Every table CSV the plan prints, in print order, from a fresh build.
std::string tableCsvs(const PlanEntry& entry, int jobs) {
  const BenchPlan bench = entry.build(benchScaleNamed("tiny"));
  std::string out;
  for (const PlanSweep& s : bench.sweeps) {
    RunnerOptions opts;
    opts.jobs = jobs;
    const SweepResult result = runSweep(s, opts);
    for (const PlanTable& t : s.tables) {
      out += t.csvName + "\n" + t.build(s.plan, result).csv();
    }
  }
  return out;
}

class PlanJobsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanJobsTest, TablesAreByteIdenticalAcrossJobCounts) {
  for (const PlanEntry& e : planRegistry()) {
    if (e.name != GetParam()) continue;
    const std::string serial = tableCsvs(e, 1);
    EXPECT_NE(serial.find(".csv\n"), std::string::npos);
    EXPECT_EQ(serial, tableCsvs(e, 4));
  }
}

std::vector<std::string> planNames() {
  std::vector<std::string> names;
  for (const PlanEntry& e : planRegistry()) names.emplace_back(e.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(PlanRegistry, PlanJobsTest,
                         ::testing::ValuesIn(planNames()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace manet::scenario
