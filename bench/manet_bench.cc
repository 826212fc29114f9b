// One binary for every experiment in the repo.
//
//   manet_bench <plan> [--jobs N --scale T --seeds N --filter A=V ...]
//       runs a registered plan (src/scenario/plans.h): prints its tables
//       and writes their CSVs into the working directory.
//   manet_bench run [--nodes N --variant V --duration S ...]
//       runs one scenario with every knob a flag and prints the paper's
//       routing and cache metrics (mean over seeds).
//   manet_bench --list
//       prints the plan names.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/scenario/bench_cli.h"
#include "src/scenario/experiment.h"
#include "src/scenario/plans.h"
#include "src/scenario/table.h"

namespace {

using namespace manet;

int runBench(const scenario::PlanEntry& entry, int argc, char** argv) {
  const scenario::BenchCli cli(argc, argv,
                               std::string("manet_bench ") + entry.name);
  scenario::BenchPlan bench = entry.build(cli.scale());
  for (scenario::PlanSweep& s : bench.sweeps) {
    cli.applyMatchingFilters(s.plan);
  }
  cli.checkFiltersConsumed();

  std::fputs(bench.header.c_str(), stdout);
  for (const scenario::PlanSweep& s : bench.sweeps) {
    const scenario::SweepResult result =
        scenario::runSweep(s, cli.runnerOptions());
    for (const scenario::PlanTable& t : s.tables) {
      t.build(s.plan, result).print(t.title, t.csvName);
    }
    std::printf("%zu points x %d seeds in %.1f s (%d jobs)\n",
                s.plan.pointCount(), result.replications, result.wallSeconds,
                result.jobs);
  }
  return 0;
}

int runScenario(int argc, char** argv) {
  const scenario::RunArgs args =
      scenario::parseRunArgs(argc, argv, "manet_bench run");
  const scenario::ScenarioConfig& cfg = args.config;
  std::printf("%s | %d nodes, %.0fx%.0f m, %d flows @ %.1f pkt/s, pause %.0fs,"
              " %.0fs x %d seed(s)\n",
              core::toString(args.variant), cfg.numNodes, cfg.field.x,
              cfg.field.y, cfg.numFlows, cfg.packetsPerSecond,
              cfg.pause.toSeconds(), cfg.duration.toSeconds(), args.seeds);

  scenario::Table csv({"seed", "delivery", "delay_s", "overhead",
                       "throughput_kbps", "good_pct", "invalid_pct",
                       "link_breaks"});
  scenario::AggregateResult agg;
  try {
    agg = scenario::runReplicated(
        cfg, args.seeds,
        [&](int i, const scenario::RunResult& r) {
          const auto& m = r.metrics;
          csv.addRow({std::to_string(i),
                      scenario::Table::num(m.packetDeliveryFraction(), 4),
                      scenario::Table::num(m.avgDelaySec(), 4),
                      scenario::Table::num(m.normalizedOverhead(), 2),
                      scenario::Table::num(m.throughputKbps(r.duration), 1),
                      scenario::Table::num(m.goodReplyPct(), 1),
                      scenario::Table::num(m.invalidCacheHitPct(), 1),
                      std::to_string(m.linkBreaksDetected)});
          std::printf("  seed %d: delivery %.3f, delay %.3fs, overhead %.1f\n",
                      i, m.packetDeliveryFraction(), m.avgDelaySec(),
                      m.normalizedOverhead());
        },
        // The export label CI's fault-smoke artifacts are named after.
        "run_scenario");
  } catch (const std::invalid_argument& e) {
    // A rejected config (e.g. --nodes 0 or --seeds 0) is a usage error.
    std::fprintf(stderr, "manet_bench run: %s\n", e.what());
    return 2;
  }

  std::printf(
      "\nmean over %d seed(s):\n"
      "  delivery fraction   %.3f\n"
      "  avg delay           %.3f s\n"
      "  normalized overhead %.2f\n"
      "  throughput          %.1f kb/s\n"
      "  good replies        %.1f %%\n"
      "  invalid cache hits  %.1f %%\n",
      args.seeds, agg.deliveryFraction.mean(), agg.avgDelaySec.mean(),
      agg.normalizedOverhead.mean(), agg.throughputKbps.mean(),
      agg.goodReplyPct.mean(), agg.invalidCacheHitPct.mean());

  if (!args.csvPath.empty()) csv.print("per-seed results", args.csvPath);
  return 0;
}

void usage(std::FILE* out) {
  std::fputs(
      "usage: manet_bench <plan> [options]   run a plan (<plan> --help)\n"
      "       manet_bench run [options]      run one scenario (run --help)\n"
      "       manet_bench --list             list the plans\n",
      out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string_view command = argv[1];
  if (command == "--help" || command == "-h") {
    usage(stdout);
    return 0;
  }
  if (command == "--list") {
    for (const scenario::PlanEntry& e : scenario::planRegistry()) {
      std::puts(e.name);
    }
    return 0;
  }
  if (command == "run") return runScenario(argc - 1, argv + 1);
  for (const scenario::PlanEntry& e : scenario::planRegistry()) {
    if (command == e.name) return runBench(e, argc - 1, argv + 1);
  }
  std::fprintf(stderr, "manet_bench: unknown plan '%s'\n", argv[1]);
  usage(stderr);
  return 2;
}
