// Fault sweep — robustness of the caching strategies under node churn.
//
// The paper's techniques fight route staleness caused by mobility; node
// churn is a harsher staleness source (a crashed node invalidates every
// cached route through it at once, and a recovered node may have lost all
// its soft state). This sweep crosses churn intensity (fraction of nodes
// cycling up/down, 30 s mean up-time, 5 s mean down-time) with the cache
// strategies and reports packet delivery fraction, delay, and overhead —
// showing which technique degrades most gracefully.
//
// The MANET_FAULT_* environment knobs are deliberately NOT read here: the
// sweep sets its plans explicitly so rows are comparable.
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/dsr_config.h"
#include "src/fault/fault_plan.h"
#include "src/scenario/bench_cli.h"
#include "src/scenario/experiment.h"
#include "src/scenario/runner.h"
#include "src/scenario/sweep.h"
#include "src/scenario/table.h"

int main(int argc, char** argv) {
  using namespace manet;
  using scenario::Table;

  const scenario::BenchCli cli(argc, argv, "fault_sweep");
  const scenario::BenchScale& scale = cli.scale();
  scenario::ScenarioConfig base = scenario::paperScenario(scale);
  base.fault = {};  // explicit plan; ignore MANET_FAULT_* for this sweep
  base.fault.churn.meanUpTimeSec = 30.0;
  base.fault.churn.meanDownTimeSec = 5.0;
  std::printf(
      "Fault sweep: churn x strategy — %d nodes, %d flows, %.0f s, "
      "%d seeds%s\n",
      base.numNodes, base.numFlows, base.duration.toSeconds(),
      cli.replications(), scale.full ? " (full scale)" : "");

  std::vector<scenario::AxisValue> variants;
  for (core::Variant v :
       {core::Variant::kBase, core::Variant::kWiderError,
        core::Variant::kAdaptiveExpiry, core::Variant::kNegCache}) {
    variants.push_back({core::toString(v), [v](scenario::ScenarioConfig& cfg) {
                          cfg.dsr = core::makeVariantConfig(v);
                        }});
  }

  scenario::ExperimentPlan plan("fault_sweep", base);
  plan.axis(
          "churn_fraction", {0.0, 0.05, 0.1, 0.2},
          [](scenario::ScenarioConfig& cfg, double fraction) {
            cfg.fault.churn.fraction = fraction;
          })
      .axis("protocol", std::move(variants))
      .metric("delivery_pct",
              [](const scenario::AggregateResult& a) {
                return a.deliveryFraction.mean() * 100.0;
              },
              1)
      .metric("delay_ms",
              [](const scenario::AggregateResult& a) {
                return a.avgDelaySec.mean() * 1000.0;
              },
              1)
      .metric("norm_overhead",
              [](const scenario::AggregateResult& a) {
                return a.normalizedOverhead.mean();
              },
              2);
  cli.applyFilters(plan);

  // Crash counts live on the per-run metrics, not the aggregate; collect
  // them through the deterministic merge-order observer.
  std::vector<double> crashes(plan.pointCount(), 0.0);
  scenario::RunnerOptions opts = cli.runnerOptions();
  opts.onRun = [&crashes](const scenario::SweepPoint& point, int,
                          const scenario::RunResult& r) {
    crashes[point.index] +=
        static_cast<double>(r.metrics.faultNodeCrashes);
  };

  const scenario::SweepResult result = scenario::runPlan(plan, opts);

  Table table({"churn_fraction", "protocol", "delivery_pct", "delay_ms",
               "norm_overhead", "crashes"});
  for (const scenario::PointResult& p : result.points) {
    std::vector<std::string> row = p.point.coordinates;
    for (const scenario::MetricColumn& m : plan.metrics()) {
      row.push_back(Table::num(m.fn(p.agg), m.precision));
    }
    row.push_back(
        Table::num(crashes[p.point.index] / result.replications, 1));
    table.addRow(row);
  }
  table.print("Fault sweep — delivery under node churn", "fault_sweep.csv");
  std::printf("%zu points x %d seeds in %.1f s (%d jobs)\n",
              plan.pointCount(), result.replications, result.wallSeconds,
              result.jobs);
  return 0;
}
