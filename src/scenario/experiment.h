// Replicated experiments: run a scenario across several mobility seeds and
// aggregate the paper's metrics ("each data point represents an average of
// five runs with identical traffic models, but different randomly generated
// mobility scenarios").
//
// runReplicated is the single-point convenience wrapper; full grids go
// through ExperimentPlan + runPlan (src/scenario/sweep.h, runner.h).
#pragma once

#include <array>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/packet.h"
#include "src/scenario/scenario.h"
#include "src/util/stats.h"

namespace manet::scenario {

struct AggregateResult {
  util::RunningStats deliveryFraction;
  util::RunningStats avgDelaySec;
  util::RunningStats normalizedOverhead;
  util::RunningStats throughputKbps;
  util::RunningStats goodReplyPct;
  util::RunningStats invalidCacheHitPct;
  util::RunningStats cacheHits;
  util::RunningStats linkBreaks;
  /// Per-origin breakdown of invalid cache hits (indexed by
  /// net::RouteOrigin): which learning path inserted the entries that went
  /// stale. Fed by Metrics::invalidCacheHitsByOrigin.
  std::array<util::RunningStats, net::kNumRouteOrigins> invalidHitsByOrigin{};

  /// Mean invalid hits summed over a set of origins (helper for
  /// attribution columns; pass e.g. {kSnooped, kForwarded}).
  double meanInvalidHits(std::initializer_list<net::RouteOrigin> origins)
      const {
    double sum = 0.0;
    for (net::RouteOrigin o : origins) {
      sum += invalidHitsByOrigin[static_cast<std::size_t>(o)].mean();
    }
    return sum;
  }
  /// Full per-run results. Populated by runReplicated; runPlan drops them
  /// after export unless RunnerOptions.keepRuns is set (a large sweep must
  /// not retain every run's sampled series and profile in memory).
  std::vector<RunResult> runs;
};

/// Run `replications` copies of `base`, varying the mobility seed per run
/// (base.mobilitySeed + i), and aggregate. `onRun` (optional) observes each
/// completed run in seed order. `label` names the experiment in structured
/// exports: when base.telemetry.exportDir is set (e.g. via
/// MANET_EXPORT_DIR), the aggregate is written to <exportDir>/<label>.json
/// plus per-run series CSVs. An empty label with a non-empty exportDir is a
/// hard error (std::invalid_argument): every caller used to fall back to
/// the same "run.json", so concurrent or sequential experiments silently
/// clobbered each other's artifacts. Honors MANET_JOBS for parallel seed
/// execution (default serial); output is byte-identical either way.
AggregateResult runReplicated(
    ScenarioConfig base, int replications,
    const std::function<void(int, const RunResult&)>& onRun = {},
    const std::string& label = {});

/// Scale knobs shared by all bench plans. The default "quick" tier keeps
/// every qualitative shape but fits a 1-core machine; "full" is the paper's
/// exact scale (100 nodes, 500 s, 5 seeds).
struct BenchScale {
  int numNodes;
  sim::Time duration;
  int replications;
  int numFlows;
  bool full;
};

/// Scale tier by name: "tiny" (30 nodes, 30 s, 1 seed — CI determinism and
/// sanitizer smoke), "quick" (the default tier), "full" (the paper's
/// scale). Throws std::invalid_argument on anything else.
BenchScale benchScaleNamed(std::string_view name);

/// Apply the scale to a config. When the node count differs from the
/// paper's 100, the field shrinks proportionally (same area per node) so
/// smaller tiers keep paper-like density instead of going sparse and
/// disconnected.
void applyScale(ScenarioConfig& cfg, const BenchScale& s);

/// The paper's evaluation scenario (Section 4.1) at the given scale:
/// random waypoint in a rectangle, CBR flows of 512-byte packets at
/// 3 packets/s, pause time as the mobility knob.
ScenarioConfig paperScenario(const BenchScale& s);

}  // namespace manet::scenario
