// General-purpose scenario driver: every knob of the simulation exposed as
// a command-line flag. The tool a downstream user reaches for first.
//
//   $ ./run_scenario --nodes 100 --pause 0 --rate 3 --variant all
//                    --duration 120 --seeds 3 --csv out.csv
//
// Prints the paper's routing and cache metrics (mean over seeds).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/core/dsr_config.h"
#include "src/scenario/experiment.h"
#include "src/scenario/table.h"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --nodes N        number of nodes              (default 100)\n"
      "  --field WxH      field size in meters         (default 2200x600)\n"
      "  --flows N        CBR flows                    (default 25)\n"
      "  --rate R         packets/s per flow           (default 3)\n"
      "  --payload B      payload bytes                (default 512)\n"
      "  --pause S        waypoint pause time, seconds (default 0)\n"
      "  --speed V        max speed m/s                (default 20)\n"
      "  --duration S     simulated seconds            (default 120)\n"
      "  --seeds N        replications                 (default 1)\n"
      "  --seed S         base mobility seed           (default 1)\n"
      "  --variant V      base|wide|static|adaptive|neg|all (default base)\n"
      "  --timeout T      static expiry timeout, seconds    (default 10)\n"
      "  --cache C        path|link cache structure    (default path)\n"
      "  --capacity N     route cache capacity         (default 128)\n"
      "  --freshness      enable freshness tagging extension\n"
      "  --csv FILE       also write a CSV row per seed\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace manet;

  scenario::ScenarioConfig cfg;
  core::Variant variant = core::Variant::kBase;
  double staticTimeout = 10.0;
  bool freshness = false;
  core::CacheStructure structure = core::CacheStructure::kPath;
  std::size_t capacity = 128;
  int seeds = 1;
  std::string csvPath;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    const char* a = argv[i];
    if (!std::strcmp(a, "--nodes")) {
      cfg.numNodes = std::atoi(next());
    } else if (!std::strcmp(a, "--field")) {
      const char* v = next();
      double w = 0, h = 0;
      if (std::sscanf(v, "%lfx%lf", &w, &h) != 2 || w <= 0 || h <= 0) {
        std::fprintf(stderr, "bad --field %s\n", v);
        return 2;
      }
      cfg.field = {w, h};
    } else if (!std::strcmp(a, "--flows")) {
      cfg.numFlows = std::atoi(next());
    } else if (!std::strcmp(a, "--rate")) {
      cfg.packetsPerSecond = std::atof(next());
    } else if (!std::strcmp(a, "--payload")) {
      cfg.payloadBytes = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (!std::strcmp(a, "--pause")) {
      cfg.pause = sim::Time::fromSeconds(std::atof(next()));
    } else if (!std::strcmp(a, "--speed")) {
      cfg.maxSpeed = std::atof(next());
    } else if (!std::strcmp(a, "--duration")) {
      cfg.duration = sim::Time::fromSeconds(std::atof(next()));
    } else if (!std::strcmp(a, "--seeds")) {
      seeds = std::atoi(next());
    } else if (!std::strcmp(a, "--seed")) {
      cfg.mobilitySeed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (!std::strcmp(a, "--variant")) {
      const std::string v = next();
      if (v == "base") variant = core::Variant::kBase;
      else if (v == "wide") variant = core::Variant::kWiderError;
      else if (v == "static") variant = core::Variant::kStaticExpiry;
      else if (v == "adaptive") variant = core::Variant::kAdaptiveExpiry;
      else if (v == "neg") variant = core::Variant::kNegCache;
      else if (v == "all") variant = core::Variant::kAll;
      else {
        std::fprintf(stderr, "unknown variant %s\n", v.c_str());
        return 2;
      }
    } else if (!std::strcmp(a, "--timeout")) {
      staticTimeout = std::atof(next());
    } else if (!std::strcmp(a, "--cache")) {
      const std::string v = next();
      if (v == "path") structure = core::CacheStructure::kPath;
      else if (v == "link") structure = core::CacheStructure::kLink;
      else {
        std::fprintf(stderr, "unknown cache %s\n", v.c_str());
        return 2;
      }
    } else if (!std::strcmp(a, "--capacity")) {
      capacity = static_cast<std::size_t>(std::atoll(next()));
    } else if (!std::strcmp(a, "--freshness")) {
      freshness = true;
    } else if (!std::strcmp(a, "--csv")) {
      csvPath = next();
    } else if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", a);
      usage(argv[0]);
      return 2;
    }
  }

  cfg.dsr = core::makeVariantConfig(variant,
                                    sim::Time::fromSeconds(staticTimeout));
  cfg.dsr.cacheStructure = structure;
  cfg.dsr.routeCacheCapacity = capacity;
  cfg.dsr.freshnessTagging = freshness;

  std::printf("%s | %d nodes, %.0fx%.0f m, %d flows @ %.1f pkt/s, pause %.0fs,"
              " %.0fs x %d seed(s)\n",
              core::toString(variant), cfg.numNodes, cfg.field.x, cfg.field.y,
              cfg.numFlows, cfg.packetsPerSecond, cfg.pause.toSeconds(),
              cfg.duration.toSeconds(), seeds);

  scenario::Table csv({"seed", "delivery", "delay_s", "overhead",
                       "throughput_kbps", "good_pct", "invalid_pct",
                       "link_breaks"});
  scenario::AggregateResult agg;
  try {
    agg = scenario::runReplicated(
        cfg, seeds,
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
        "run_scenario");
  } catch (const std::invalid_argument& e) {
    // A rejected config (e.g. --nodes 0 or --seeds 0) is a usage error.
    std::fprintf(stderr, "run_scenario: %s\n", e.what());
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
      seeds, agg.deliveryFraction.mean(), agg.avgDelaySec.mean(),
      agg.normalizedOverhead.mean(), agg.throughputKbps.mean(),
      agg.goodReplyPct.mean(), agg.invalidCacheHitPct.mean());

  if (!csvPath.empty()) csv.print("per-seed results", csvPath);
  return 0;
}
