// Helper binary for the cross-process replay regression test: runs the
// scaled paper-baseline scenario (random-waypoint field, CBR flows, node
// churn) once and writes the deterministic structured run export — the
// volatile-free run JSON plus the sampled time series CSV. The companion
// gtest launches this binary twice, in two separate processes, and requires
// both artifacts to match byte-for-byte: the strongest end-to-end statement
// of "bit-identical replay" the repo can make.
//
//   replay_runner <out-base> [mobilitySeed]
//
// Writes <out-base>.json and <out-base>.series.csv.
//
// Sweep mode for the parallel-determinism regression test: run a small
// two-point, two-seed ExperimentPlan through the parallel runner and write
// one volatile-free aggregate JSON per point. The companion test diffs the
// artifacts of a --jobs 1 process against a --jobs 4 process.
//
//   replay_runner --sweep <out-base> <jobs>
//
// Writes <out-base>.<point-label>.json for every sweep point.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/scenario/sweep.h"
#include "src/telemetry/export.h"

namespace {

int runSweep(const std::string& outBase, int jobs) {
  using namespace manet;
  scenario::ScenarioConfig base;
  base.numNodes = 20;
  base.field = {800.0, 300.0};
  base.numFlows = 5;
  base.duration = sim::Time::seconds(20);
  base.mobilitySeed = 4242;
  base.telemetry = {};  // exports are written explicitly below

  scenario::ExperimentPlan plan("replay_sweep", base);
  plan.axis(
      "pause_s", {0.0, 5.0},
      [](scenario::ScenarioConfig& c, double p) {
        c.pause = sim::Time::fromSeconds(p);
      },
      /*labelPrecision=*/0);

  scenario::RunnerOptions opts;
  opts.jobs = jobs;
  opts.replications = 2;
  opts.keepRuns = true;  // aggregateJson embeds the per-run entries

  const scenario::SweepResult result = scenario::runPlan(plan, opts);

  for (const scenario::PointResult& p : result.points) {
    const std::string json =
        telemetry::aggregateJson(p.agg, p.point.config, p.point.label) + "\n";
    if (!telemetry::writeFile(outBase + "." + p.point.label + ".json",
                              json)) {
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--sweep") {
    if (argc != 4) {
      std::fprintf(stderr, "usage: replay_runner --sweep <out-base> <jobs>\n");
      return 2;
    }
    return runSweep(argv[2],
                    static_cast<int>(std::strtol(argv[3], nullptr, 10)));
  }
  if (argc < 2) {
    std::fprintf(stderr, "usage: replay_runner <out-base> [mobilitySeed]\n");
    return 2;
  }
  const std::string outBase = argv[1];

  using namespace manet;
  scenario::ScenarioConfig c;
  // Scaled paper baseline: same field shape and traffic style as Marina &
  // Das's 50-node/1500x300m setup, shrunk to keep the test under a couple
  // of seconds while still exercising discovery, caching, salvaging,
  // sampling and fault handling.
  c.numNodes = 25;
  c.field = {1000.0, 300.0};
  c.numFlows = 8;
  c.packetsPerSecond = 3.0;
  c.duration = sim::Time::seconds(60);
  c.mobilitySeed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4242;
  c.telemetry.samplePeriod = sim::Time::seconds(2);
  c.fault.churn.fraction = 0.15;
  c.fault.churn.meanUpTimeSec = 20.0;
  c.fault.churn.meanDownTimeSec = 4.0;
  c.fault.seed = 99;

  const scenario::RunResult r = scenario::runScenario(c);
  const std::string json = telemetry::runResultJson(r) + "\n";
  if (!telemetry::writeFile(outBase + ".json", json)) return 1;
  if (!telemetry::writeFile(outBase + ".series.csv",
                            telemetry::seriesCsv(r.series))) {
    return 1;
  }
  return 0;
}
