// perf_baseline: serial vs parallel sweep-runner check.
//
// Runs one small eight-cell sweep with --jobs 1 and then with --jobs N,
// prints the wall-time ratio, and exits non-zero unless every sweep point's
// aggregate JSON is byte-identical across the two job counts. Simulator
// speed itself is measured by perfbench/ (see perfbench/README.md).
//
//   perf_baseline --sweep-speedup [--jobs N]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/dsr_config.h"
#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/scenario/sweep.h"
#include "src/telemetry/export.h"

namespace {

using namespace manet;

int runSweepSpeedup(int jobs) {
  // Every knob pinned explicitly, so MANET_* env vars cannot shift the run.
  scenario::ScenarioConfig cfg;
  cfg.telemetry = telemetry::TelemetryConfig{};
  cfg.fault = fault::FaultPlan{};
  cfg.prof = prof::ProfConfig{};
  cfg.mobilitySeed = 11;
  cfg.trafficSeed = 42;
  cfg.numNodes = 20;
  cfg.field = Vec2{800.0, 400.0};
  cfg.numFlows = 5;
  cfg.duration = sim::Time::seconds(10);
  cfg.pause = sim::Time::zero();

  // Eight independent cells (a fig1-style timeout axis), one seed each —
  // enough parallelism to saturate a typical 4-core CI runner.
  scenario::ExperimentPlan plan("speedup", cfg);
  plan.axis("timeout_s", {0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0},
            [](scenario::ScenarioConfig& c, double t) {
              c.dsr = core::makeVariantConfig(core::Variant::kStaticExpiry,
                                              sim::Time::fromSeconds(t));
            });

  const auto sweepOnce = [&plan](int j) {
    scenario::RunnerOptions opts;
    opts.jobs = j;
    opts.keepRuns = true;
    return scenario::runPlan(plan, opts);
  };
  const int parJobs = scenario::resolveJobs(jobs);
  std::fprintf(stderr, "sweep-speedup: 8 cells, serial then %d jobs\n",
               parJobs);
  const scenario::SweepResult serial = sweepOnce(1);
  const scenario::SweepResult parallel = sweepOnce(parJobs);

  bool identical = true;
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    const std::string a = telemetry::aggregateJson(
        serial.points[p].agg, serial.points[p].point.config,
        serial.points[p].point.label);
    const std::string b = telemetry::aggregateJson(
        parallel.points[p].agg, parallel.points[p].point.config,
        parallel.points[p].point.label);
    if (a != b) {
      identical = false;
      std::fprintf(stderr, "DIVERGED at point %s\n",
                   serial.points[p].point.label.c_str());
    }
  }

  const double speedup = parallel.wallSeconds > 0.0
                             ? serial.wallSeconds / parallel.wallSeconds
                             : 0.0;
  std::printf("jobs  wall_s  speedup\n");
  std::printf("%4d  %6.2f  %7.2fx\n", 1, serial.wallSeconds, 1.0);
  std::printf("%4d  %6.2f  %7.2fx\n", parallel.jobs, parallel.wallSeconds,
              speedup);
  std::printf("aggregate JSON byte-identical across job counts: %s\n",
              identical ? "yes" : "NO");
  return identical ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --sweep-speedup [--jobs N]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool sweepSpeedup = false;
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sweep-speedup") {
      sweepSpeedup = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (!sweepSpeedup) return usage(argv[0]);
  return runSweepSpeedup(jobs);
}
