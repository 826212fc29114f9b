// Fig. 4 — Performance metrics with increasing offered load.
//
// Reproduces the paper's load sweep at constant mobility (pause 0 s): the
// per-flow CBR rate is varied, and received throughput, average delay and
// normalized overhead are reported per protocol variant.
//
// Expected shape: ALL outperforms base DSR across loads (throughput
// saturates later / higher); the individual techniques lie between the two,
// with the negative cache's benefit growing with load (cache pollution by
// in-flight stale routes is a high-rate phenomenon).
//
// Two plan axes (rate x protocol); each panel is a pivot of one metric.
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/dsr_config.h"
#include "src/scenario/bench_cli.h"
#include "src/scenario/experiment.h"
#include "src/scenario/runner.h"
#include "src/scenario/sweep.h"
#include "src/scenario/table.h"

int main(int argc, char** argv) {
  using namespace manet;
  using scenario::Table;

  const scenario::BenchCli cli(argc, argv, "fig4_load_sweep");
  const scenario::BenchScale& scale = cli.scale();
  scenario::ScenarioConfig base = scenario::paperScenario(scale);
  std::printf("Fig. 4: load sweep — %d nodes, %d flows, %.0f s, %d seeds%s\n",
              base.numNodes, base.numFlows, base.duration.toSeconds(),
              cli.replications(), scale.full ? " (full scale)" : "");
  for (double rate : {1.0, 2.0, 3.0, 5.0, 8.0}) {
    std::printf("  %.0f pkt/s per flow = %.0f kb/s offered\n", rate,
                rate * base.numFlows * base.payloadBytes * 8.0 / 1000.0);
  }

  std::vector<scenario::AxisValue> variants;
  for (core::Variant v :
       {core::Variant::kBase, core::Variant::kWiderError,
        core::Variant::kAdaptiveExpiry, core::Variant::kNegCache,
        core::Variant::kAll}) {
    variants.push_back({core::toString(v), [v](scenario::ScenarioConfig& cfg) {
                          cfg.dsr = core::makeVariantConfig(v);
                        }});
  }

  scenario::ExperimentPlan plan("fig4", base);
  plan.axis(
          "rate_pkt_s", {1.0, 2.0, 3.0, 5.0, 8.0},
          [](scenario::ScenarioConfig& cfg, double rate) {
            cfg.packetsPerSecond = rate;
          },
          /*labelPrecision=*/0)
      .axis("protocol", std::move(variants))
      .metric("throughput_kbps",
              [](const scenario::AggregateResult& a) {
                return a.throughputKbps.mean();
              },
              1)
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

  scenario::pivotTable(plan, result, "throughput_kbps")
      .print("Fig. 4(a) — received throughput (kb/s) vs offered load",
             "fig4a_throughput.csv");
  scenario::pivotTable(plan, result, "delay_s")
      .print("Fig. 4(b) — average delay (s) vs offered load",
             "fig4b_delay.csv");
  scenario::pivotTable(plan, result, "overhead")
      .print("Fig. 4(c) — normalized overhead vs offered load",
             "fig4c_overhead.csv");
  std::printf("%zu points x %d seeds in %.1f s (%d jobs)\n",
              plan.pointCount(), result.replications, result.wallSeconds,
              result.jobs);
  return 0;
}
