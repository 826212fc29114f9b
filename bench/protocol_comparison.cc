// Extension experiment: DSR (base and ALL) vs AODV across mobility.
//
// Mirrors the companion study the paper builds on (Das, Perkins & Royer,
// INFOCOM 2000 — reference [3]): AODV's sequence-numbered, single-entry
// routes degrade more gracefully under mobility than DSR's unguarded path
// caches; the paper's techniques close much of that gap. The paper's
// conclusion also suggests AODV's intermediate replies would benefit from
// these ideas — compare the `AODV-noIR` column (intermediate replies off,
// i.e. no cache-like behaviour at all).
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

  const scenario::BenchCli cli(argc, argv, "protocol_comparison");
  const scenario::BenchScale& scale = cli.scale();
  scenario::ScenarioConfig base = scenario::paperScenario(scale);
  std::printf(
      "Protocol comparison — %d nodes, %d flows, %.0f s, %d seeds%s\n",
      base.numNodes, base.numFlows, base.duration.toSeconds(),
      cli.replications(), scale.full ? " (full scale)" : "");

  const double runLen = base.duration.toSeconds();
  std::vector<scenario::AxisValue> pauses;
  for (double frac : {0.0, 0.5, 1.0}) {
    const double pauseSec = frac * runLen;
    pauses.push_back(
        {Table::num(pauseSec, 0), [pauseSec](scenario::ScenarioConfig& cfg) {
           cfg.pause = sim::Time::fromSeconds(pauseSec);
         }});
  }

  struct Proto {
    const char* name;
    net::Protocol protocol;
    core::Variant variant;     // DSR only
    bool intermediateReplies;  // AODV only
  };
  std::vector<scenario::AxisValue> protocols;
  for (const Proto p :
       {Proto{"DSR-base", net::Protocol::kDsr, core::Variant::kBase, true},
        Proto{"DSR-ALL", net::Protocol::kDsr, core::Variant::kAll, true},
        Proto{"AODV", net::Protocol::kAodv, core::Variant::kBase, true},
        Proto{"AODV-noIR", net::Protocol::kAodv, core::Variant::kBase,
              false}}) {
    protocols.push_back({p.name, [p](scenario::ScenarioConfig& cfg) {
                           cfg.protocol = p.protocol;
                           cfg.dsr = core::makeVariantConfig(p.variant);
                           cfg.aodv.intermediateReplies =
                               p.intermediateReplies;
                         }});
  }

  scenario::ExperimentPlan plan("proto", base);
  plan.axis("pause_s", std::move(pauses))
      .axis("protocol", std::move(protocols))
      .metric("delivery",
              [](const scenario::AggregateResult& a) {
                return a.deliveryFraction.mean();
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
      .print("Protocol comparison — delivery fraction vs pause time",
             "protocol_comparison_delivery.csv");
  scenario::pivotTable(plan, result, "overhead")
      .print("Protocol comparison — normalized overhead vs pause time",
             "protocol_comparison_overhead.csv");
  std::printf("%zu points x %d seeds in %.1f s (%d jobs)\n",
              plan.pointCount(), result.replications, result.wallSeconds,
              result.jobs);
  return 0;
}
