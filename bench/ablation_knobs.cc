// Ablation bench (beyond the paper): the design knobs DESIGN.md calls out.
//
//  1. adaptive alpha            — the paper's alpha is unreadable; show the
//                                 sensitivity and why alpha = 2 is chosen.
//  2. negative cache size / Nt  — paper gives Nt = 10 s and a garbled size.
//  3. route cache capacity      — "stale entries stay forever" requires
//                                 caches big enough for entries to linger;
//                                 small FIFO caches mask the disease.
//  4. expiry "use" semantics    — whether originating over a route counts
//                                 as using it (the paper's wording says no,
//                                 and that is what makes tiny timeouts
//                                 expensive).
//
// Six single-axis plans run back to back; --filter applies to whichever
// plan has the named axis (e.g. --filter alpha=2.0 narrows plan 1 and
// leaves the others whole).
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/dsr_config.h"
#include "src/scenario/bench_cli.h"
#include "src/scenario/experiment.h"
#include "src/scenario/runner.h"
#include "src/scenario/sweep.h"
#include "src/scenario/table.h"

using namespace manet;
using scenario::Table;

namespace {

/// The shared metric columns (same shape as the paper's per-figure rows).
scenario::ExperimentPlan& addMetrics(scenario::ExperimentPlan& plan) {
  return plan
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
              2)
      .metric("good_pct",
              [](const scenario::AggregateResult& a) {
                return a.goodReplyPct.mean();
              },
              1)
      .metric("invalid_pct",
              [](const scenario::AggregateResult& a) {
                return a.invalidCacheHitPct.mean();
              },
              1);
}

/// Run one ablation plan and print its table.
void runAblation(const scenario::BenchCli& cli, scenario::ExperimentPlan& plan,
                 const std::string& title, const std::string& csvName) {
  addMetrics(plan);
  cli.applyMatchingFilters(plan);
  const scenario::SweepResult result =
      scenario::runPlan(plan, cli.runnerOptions());
  scenario::pointTable(plan, result).print(title, csvName);
  std::printf("%zu points x %d seeds in %.1f s (%d jobs)\n",
              plan.pointCount(), result.replications, result.wallSeconds,
              result.jobs);
}

}  // namespace

int main(int argc, char** argv) {
  const scenario::BenchCli cli(argc, argv, "ablation_knobs");
  const scenario::BenchScale& scale = cli.scale();
  scenario::ScenarioConfig base = scenario::paperScenario(scale);
  std::printf("Ablations — %d nodes, %d flows, %.0f s, %d seeds%s\n",
              base.numNodes, base.numFlows, base.duration.toSeconds(),
              cli.replications(), scale.full ? " (full scale)" : "");

  {  // 1. adaptive alpha
    scenario::ScenarioConfig cfg = base;
    cfg.dsr = core::makeVariantConfig(core::Variant::kAdaptiveExpiry);
    scenario::ExperimentPlan plan("ablation_alpha", cfg);
    plan.axis(
        "alpha", {0.5, 1.0, 2.0, 4.0, 8.0},
        [](scenario::ScenarioConfig& c, double alpha) {
          c.dsr.adaptiveAlpha = alpha;
        },
        /*labelPrecision=*/1);
    runAblation(cli, plan, "Ablation 1 — adaptive timeout alpha",
                "ablation_alpha.csv");
  }

  {  // 2. negative cache size and Nt
    scenario::ScenarioConfig cfg = base;
    cfg.dsr = core::makeVariantConfig(core::Variant::kNegCache);
    struct Knob {
      std::size_t cap;
      double nt;
    };
    std::vector<scenario::AxisValue> knobs;
    for (Knob k : {Knob{16, 10}, Knob{64, 10}, Knob{256, 10}, Knob{64, 3},
                   Knob{64, 30}}) {
      knobs.push_back({"cap=" + std::to_string(k.cap) +
                           ",Nt=" + Table::num(k.nt, 0),
                       [k](scenario::ScenarioConfig& c) {
                         c.dsr.negCacheCapacity = k.cap;
                         c.dsr.negCacheTtl = sim::Time::fromSeconds(k.nt);
                       }});
    }
    scenario::ExperimentPlan plan("ablation_negcache", cfg);
    plan.axis("negcache", std::move(knobs));
    runAblation(cli, plan, "Ablation 2 — negative cache size / Nt",
                "ablation_negcache.csv");
  }

  {  // 3. route cache capacity (base DSR)
    scenario::ScenarioConfig cfg = base;
    cfg.dsr = core::makeVariantConfig(core::Variant::kBase);
    std::vector<scenario::AxisValue> caps;
    for (std::size_t cap : {32u, 64u, 128u, 256u, 1024u}) {
      caps.push_back({std::to_string(cap), [cap](scenario::ScenarioConfig& c) {
                        c.dsr.routeCacheCapacity = cap;
                      }});
    }
    scenario::ExperimentPlan plan("ablation_capacity", cfg);
    plan.axis("capacity", std::move(caps));
    runAblation(cli, plan, "Ablation 3 — route cache capacity (base DSR)",
                "ablation_capacity.csv");
  }

  {  // 4. cache structure: the paper's path cache vs Hu & Johnson's link
     //    cache, under base DSR and under ALL (footnote 1 of the paper).
    std::vector<scenario::AxisValue> structures;
    for (core::CacheStructure s :
         {core::CacheStructure::kPath, core::CacheStructure::kLink}) {
      structures.push_back(
          {core::toString(s), [s](scenario::ScenarioConfig& c) {
             c.dsr.cacheStructure = s;
             // A link cache stores individual links, not whole paths: give
             // it a comparable information budget.
             c.dsr.routeCacheCapacity =
                 s == core::CacheStructure::kLink ? 512 : 128;
           }});
    }
    std::vector<scenario::AxisValue> variants;
    for (core::Variant v : {core::Variant::kBase, core::Variant::kAll}) {
      // makeVariantConfig replaces the whole dsr block, so this mutator
      // (applied after the structure axis) re-applies the structure knobs
      // it would otherwise wipe.
      variants.push_back({core::toString(v),
                          [v](scenario::ScenarioConfig& c) {
                            const core::CacheStructure keep =
                                c.dsr.cacheStructure;
                            const std::size_t cap = c.dsr.routeCacheCapacity;
                            c.dsr = core::makeVariantConfig(v);
                            c.dsr.cacheStructure = keep;
                            c.dsr.routeCacheCapacity = cap;
                          }});
    }
    scenario::ExperimentPlan plan("ablation_structure", base);
    plan.axis("structure", std::move(structures))
        .axis("structure_variant", std::move(variants));
    runAblation(cli, plan, "Ablation 4 — cache structure (path vs link)",
                "ablation_structure.csv");
  }

  {  // 5. freshness tagging (the paper's future work) on top of ALL
    scenario::ScenarioConfig cfg = base;
    cfg.dsr = core::makeVariantConfig(core::Variant::kAll);
    scenario::ExperimentPlan plan("ablation_freshness", cfg);
    plan.axis("freshness",
              {scenario::AxisValue{"ALL",
                                   [](scenario::ScenarioConfig& c) {
                                     c.dsr.freshnessTagging = false;
                                   }},
               scenario::AxisValue{"ALL+freshness_tags",
                                   [](scenario::ScenarioConfig& c) {
                                     c.dsr.freshnessTagging = true;
                                   }}});
    runAblation(cli, plan,
                "Ablation 5 — route freshness tagging (future-work extension)",
                "ablation_freshness.csv");
  }

  {  // 6. expiry use semantics at a small timeout
    scenario::ScenarioConfig cfg = base;
    cfg.dsr = core::makeVariantConfig(core::Variant::kStaticExpiry,
                                      sim::Time::fromSeconds(1));
    scenario::ExperimentPlan plan("ablation_use_semantics", cfg);
    plan.axis(
        "use_semantics",
        {scenario::AxisValue{"T=1s_forwarded-only_(paper)",
                             [](scenario::ScenarioConfig& c) {
                               c.dsr.expiryCountsOrigination = false;
                             }},
         scenario::AxisValue{"T=1s_origination_counts",
                             [](scenario::ScenarioConfig& c) {
                               c.dsr.expiryCountsOrigination = true;
                             }}});
    runAblation(cli, plan, "Ablation 6 — expiry 'use' semantics at T=1s",
                "ablation_use_semantics.csv");
  }

  cli.checkFiltersConsumed();
  return 0;
}
