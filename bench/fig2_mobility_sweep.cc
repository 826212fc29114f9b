// Fig. 2 — Performance metrics with varying pause times (mobility).
//
// Reproduces the paper's mobility sweep: pause time 0 s (constant motion)
// to the run length (no motion), 3 packets/s, comparing base DSR against
// each caching technique and their combination ("ALL").
//
// Expected shape: ALL beats base DSR on delivery, delay and overhead at
// low pause times (paper: ~16 % delivery, ~40 % delay, ~22 % overhead at
// pause 0); the gap closes as mobility vanishes.
//
// Two plan axes (pause x protocol) expand to the paper's 25-cell grid;
// each figure panel is a pivot of one metric over that grid.
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/dsr_config.h"
#include "src/scenario/bench_cli.h"
#include "src/scenario/experiment.h"
#include "src/scenario/runner.h"
#include "src/scenario/sweep.h"
#include "src/scenario/table.h"

namespace {

/// Axis over the paper's five protocol variants (base DSR, each technique,
/// ALL), shared by several benches.
std::vector<manet::scenario::AxisValue> variantAxis() {
  using namespace manet;
  std::vector<scenario::AxisValue> values;
  for (core::Variant v :
       {core::Variant::kBase, core::Variant::kWiderError,
        core::Variant::kAdaptiveExpiry, core::Variant::kNegCache,
        core::Variant::kAll}) {
    values.push_back({core::toString(v), [v](scenario::ScenarioConfig& cfg) {
                        cfg.dsr = core::makeVariantConfig(v);
                      }});
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace manet;
  using scenario::Table;

  const scenario::BenchCli cli(argc, argv, "fig2_mobility_sweep");
  const scenario::BenchScale& scale = cli.scale();
  scenario::ScenarioConfig base = scenario::paperScenario(scale);
  std::printf(
      "Fig. 2: mobility sweep — %d nodes, %d flows, %.0f s, %d seeds%s\n",
      base.numNodes, base.numFlows, base.duration.toSeconds(),
      cli.replications(), scale.full ? " (full scale)" : "");

  // Pause times from constant motion to fully static, scaled to the run
  // length (the paper used 0..500 s over 500 s runs).
  const double runLen = base.duration.toSeconds();
  std::vector<scenario::AxisValue> pauses;
  for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double pauseSec = frac * runLen;
    pauses.push_back(
        {Table::num(pauseSec, 0), [pauseSec](scenario::ScenarioConfig& cfg) {
           cfg.pause = sim::Time::fromSeconds(pauseSec);
         }});
  }

  scenario::ExperimentPlan plan("fig2", base);
  plan.axis("pause_s", std::move(pauses))
      .axis("protocol", variantAxis())
      .metric("delivery",
              [](const scenario::AggregateResult& a) {
                return a.deliveryFraction.mean();
              })
      .metric("delay_s",
              [](const scenario::AggregateResult& a) {
                return a.avgDelaySec.mean();
              })
      .metric("overhead",
              [](const scenario::AggregateResult& a) {
                return a.normalizedOverhead.mean();
              },
              2);
  cli.applyFilters(plan);

  const scenario::SweepResult result =
      scenario::runPlan(plan, cli.runnerOptions());

  scenario::pivotTable(plan, result, "delivery")
      .print("Fig. 2(a) — packet delivery fraction vs pause time",
             "fig2a_delivery.csv");
  scenario::pivotTable(plan, result, "delay_s")
      .print("Fig. 2(b) — average delay (s) vs pause time",
             "fig2b_delay.csv");
  scenario::pivotTable(plan, result, "overhead")
      .print("Fig. 2(c) — normalized overhead vs pause time",
             "fig2c_overhead.csv");
  std::printf("%zu points x %d seeds in %.1f s (%d jobs)\n",
              plan.pointCount(), result.replications, result.wallSeconds,
              result.jobs);
  return 0;
}
