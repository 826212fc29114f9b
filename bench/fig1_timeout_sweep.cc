// Fig. 1 — Performance metrics for different timeout periods.
//
// Reproduces the paper's static-timeout sweep at constant mobility
// (pause 0 s, 3 packets/s): packet delivery fraction, average delay and
// normalized overhead versus the route-expiry timeout, with the
// no-timeout (base DSR) and adaptive-timeout values as references.
//
// Expected shape: a too-small timeout hurts (worse delay/overhead than no
// timeout at all — every active route keeps getting invalidated under the
// sender), performance peaks at a well-chosen timeout, then decays back to
// the no-timeout baseline as the timeout grows; the adaptive mechanism
// lands near the static optimum.
//
// One ExperimentPlan, one axis (the timeout, mixing the two reference
// points with the static values); the runner parallelizes the grid across
// --jobs workers with byte-identical output for every job count. See
// --help for the shared bench flags (--jobs/--scale/--seeds/--filter/...).
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

  const scenario::BenchCli cli(argc, argv, "fig1_timeout_sweep");
  const scenario::BenchScale& scale = cli.scale();
  scenario::ScenarioConfig base = scenario::paperScenario(scale);
  std::printf(
      "Fig. 1: timeout sweep — %d nodes, %d flows, %.0f s, %d seeds%s\n",
      base.numNodes, base.numFlows, base.duration.toSeconds(),
      cli.replications(), scale.full ? " (full scale)" : "");

  std::vector<scenario::AxisValue> timeouts;
  timeouts.push_back({"none", [](scenario::ScenarioConfig& cfg) {
                        cfg.dsr = core::makeVariantConfig(core::Variant::kBase);
                      }});
  for (double t : {0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
    timeouts.push_back({Table::num(t, 2), [t](scenario::ScenarioConfig& cfg) {
                          cfg.dsr = core::makeVariantConfig(
                              core::Variant::kStaticExpiry,
                              sim::Time::fromSeconds(t));
                        }});
  }
  timeouts.push_back(
      {"adaptive", [](scenario::ScenarioConfig& cfg) {
         cfg.dsr = core::makeVariantConfig(core::Variant::kAdaptiveExpiry);
       }});

  scenario::ExperimentPlan plan("fig1", base);
  plan.axis("timeout_s", std::move(timeouts))
      .metric("delivery_fraction",
              [](const scenario::AggregateResult& a) {
                return a.deliveryFraction.mean();
              })
      .metric("avg_delay_s",
              [](const scenario::AggregateResult& a) {
                return a.avgDelaySec.mean();
              })
      .metric("normalized_overhead",
              [](const scenario::AggregateResult& a) {
                return a.normalizedOverhead.mean();
              },
              2)
      .metric("good_replies_pct",
              [](const scenario::AggregateResult& a) {
                return a.goodReplyPct.mean();
              },
              1)
      .metric("invalid_hits_pct",
              [](const scenario::AggregateResult& a) {
                return a.invalidCacheHitPct.mean();
              },
              1);
  cli.applyFilters(plan);

  const scenario::SweepResult result =
      scenario::runPlan(plan, cli.runnerOptions());

  scenario::pointTable(plan, result)
      .print("Fig. 1 — metrics vs route expiry timeout (pause 0, 3 pkt/s)",
             "fig1_timeout_sweep.csv");
  std::printf("%zu points x %d seeds in %.1f s (%d jobs)\n",
              plan.pointCount(), result.replications, result.wallSeconds,
              result.jobs);
  return 0;
}
