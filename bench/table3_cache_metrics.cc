// Table 3 (Fig. 3 in the text) — Cache-related metrics for different
// caching techniques at constant mobility (pause 0 s, 3 packets/s):
//   * percentage of good replies — route replies whose reported route was
//     actually valid when received (link oracle);
//   * percentage of invalid cached routes — cache hits that handed out a
//     route containing a dead link.
//
// Expected shape: every technique raises reply quality and lowers invalid
// hits relative to base DSR; ALL is the best (paper: ~70 % improvement in
// reply quality).
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

  const scenario::BenchCli cli(argc, argv, "table3_cache_metrics");
  const scenario::BenchScale& scale = cli.scale();
  scenario::ScenarioConfig base = scenario::paperScenario(scale);
  std::printf(
      "Table 3: cache metrics — %d nodes, %d flows, %.0f s, %d seeds%s\n",
      base.numNodes, base.numFlows, base.duration.toSeconds(),
      cli.replications(), scale.full ? " (full scale)" : "");

  std::vector<scenario::AxisValue> variants;
  for (core::Variant v :
       {core::Variant::kBase, core::Variant::kWiderError,
        core::Variant::kAdaptiveExpiry, core::Variant::kNegCache,
        core::Variant::kAll}) {
    variants.push_back({core::toString(v), [v](scenario::ScenarioConfig& cfg) {
                          cfg.dsr = core::makeVariantConfig(v);
                        }});
  }

  scenario::ExperimentPlan plan("table3", base);
  plan.axis("protocol", std::move(variants))
      .metric("good_replies_pct",
              [](const scenario::AggregateResult& a) {
                return a.goodReplyPct.mean();
              },
              1)
      .metric("invalid_routes_pct",
              [](const scenario::AggregateResult& a) {
                return a.invalidCacheHitPct.mean();
              },
              1)
      .metric("cache_hits",
              [](const scenario::AggregateResult& a) {
                return a.cacheHits.mean();
              },
              0)
      .metric("link_breaks",
              [](const scenario::AggregateResult& a) {
                return a.linkBreaks.mean();
              },
              0)
      // Provenance attribution (causal trace layer): where the stale
      // entries behind the invalid hits were learned — from route replies
      // (target / cached / gratuitous) vs passively (snooping, forwarding,
      // delivery, reverse request paths). Percentages of all invalid hits.
      .metric("inv_from_replies_pct",
              [](const scenario::AggregateResult& a) {
                using O = net::RouteOrigin;
                const double replies = a.meanInvalidHits(
                    {O::kTargetReply, O::kCachedReply, O::kGratuitous});
                const double all = a.meanInvalidHits(
                    {O::kTargetReply, O::kCachedReply, O::kGratuitous,
                     O::kReverseRequest, O::kForwarded, O::kDelivered,
                     O::kSnooped, O::kSeeded, O::kNone});
                return all > 0.0 ? 100.0 * replies / all : 0.0;
              },
              1)
      .metric("inv_from_passive_pct",
              [](const scenario::AggregateResult& a) {
                using O = net::RouteOrigin;
                const double passive = a.meanInvalidHits(
                    {O::kReverseRequest, O::kForwarded, O::kDelivered,
                     O::kSnooped});
                const double all = a.meanInvalidHits(
                    {O::kTargetReply, O::kCachedReply, O::kGratuitous,
                     O::kReverseRequest, O::kForwarded, O::kDelivered,
                     O::kSnooped, O::kSeeded, O::kNone});
                return all > 0.0 ? 100.0 * passive / all : 0.0;
              },
              1);
  cli.applyFilters(plan);

  const scenario::SweepResult result =
      scenario::runPlan(plan, cli.runnerOptions());

  scenario::pointTable(plan, result)
      .print("Table 3 — cache-related metrics at pause 0",
             "table3_cache_metrics.csv");
  std::printf("%zu points x %d seeds in %.1f s (%d jobs)\n",
              plan.pointCount(), result.replications, result.wallSeconds,
              result.jobs);
  return 0;
}
