#include "src/scenario/experiment.h"

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "src/scenario/runner.h"
#include "src/scenario/sweep.h"

namespace manet::scenario {

AggregateResult runReplicated(
    ScenarioConfig base, int replications,
    const std::function<void(int, const RunResult&)>& onRun,
    const std::string& label) {
  if (!base.telemetry.exportDir.empty() && label.empty()) {
    throw std::invalid_argument(
        "runReplicated: exportDir is set but no export label was given; "
        "every unlabelled experiment would write the same "
        "<exportDir>/run.json and clobber the previous one — pass a unique "
        "label (or use an ExperimentPlan, which derives one per point)");
  }
  ExperimentPlan plan(label.empty() ? std::string("run") : label, base);
  RunnerOptions opts;
  opts.jobs = -1;  // MANET_JOBS when set, else serial
  if (std::getenv("MANET_JOBS") == nullptr) opts.jobs = 1;  // NOLINT(concurrency-mt-unsafe)
  opts.replications = replications;
  opts.keepRuns = true;
  if (onRun) {
    opts.onRun = [&onRun](const SweepPoint&, int rep, const RunResult& r) {
      onRun(rep, r);
    };
  }
  SweepResult sweep = runPlan(plan, opts);
  return std::move(sweep.points.at(0).agg);
}

BenchScale benchScaleNamed(std::string_view name) {
  if (name == "full") {
    return BenchScale{.numNodes = 100,
                      .duration = sim::Time::seconds(500),
                      .replications = 5,
                      .numFlows = 25,
                      .full = true};
  }
  if (name == "quick") {
    // Default scale: the paper's full topology and workload, but shorter
    // runs and fewer seeds so the whole bench suite fits a small machine.
    return BenchScale{.numNodes = 100,
                      .duration = sim::Time::seconds(120),
                      .replications = 2,
                      .numFlows = 25,
                      .full = false};
  }
  if (name == "tiny") {
    // CI smoke tier: seconds per run, so determinism diffs and sanitizer
    // jobs can afford a whole sweep per job count.
    return BenchScale{.numNodes = 30,
                      .duration = sim::Time::seconds(30),
                      .replications = 1,
                      .numFlows = 8,
                      .full = false};
  }
  throw std::invalid_argument("unknown bench scale '" + std::string(name) +
                              "' (expected tiny, quick or full)");
}

ScenarioConfig paperScenario(const BenchScale& s) {
  ScenarioConfig cfg;
  cfg.field = {2200.0, 600.0};
  cfg.maxSpeed = 20.0;
  cfg.packetsPerSecond = 3.0;
  cfg.payloadBytes = 512;
  cfg.pause = sim::Time::zero();
  cfg.mobilitySeed = 1;
  applyScale(cfg, s);
  return cfg;
}

void applyScale(ScenarioConfig& cfg, const BenchScale& s) {
  if (s.numNodes != 100) {
    // Preserve area-per-node (the paper: 100 nodes on 2200 m x 600 m) so
    // a smaller tier stays as connected as the full field.
    const double shrink = std::sqrt(static_cast<double>(s.numNodes) / 100.0);
    cfg.field.x *= shrink;
    cfg.field.y *= shrink;
  }
  cfg.numNodes = s.numNodes;
  cfg.duration = s.duration;
  cfg.numFlows = s.numFlows;
}

}  // namespace manet::scenario
