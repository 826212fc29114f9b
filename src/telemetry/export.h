// Structured run export: JSON and CSV writers for RunResult /
// AggregateResult and the sampled time series, so bench output is a
// machine-readable artifact instead of a stdout table.
//
// Switched on by ScenarioConfig.telemetry.exportDir (env:
// MANET_EXPORT_DIR); runReplicated calls exportAggregate automatically.
#pragma once

#include <string>
#include <string_view>

#include "src/scenario/experiment.h"
#include "src/scenario/scenario.h"
#include "src/telemetry/sampler.h"

namespace manet::telemetry {

/// All Metrics counters plus the paper's derived metrics as one flat JSON
/// object.
std::string metricsJson(const metrics::Metrics& m, sim::Time duration);

/// One run: duration, event count, scheduler counters, metrics. Nothing
/// host-dependent (wall time, the profile) is written, so two same-seed
/// runs — in the same process or separate ones — produce byte-identical
/// JSON; the replay regression test diffs exactly this form.
std::string runResultJson(const scenario::RunResult& r);

/// A replicated experiment: label, scenario parameters, per-metric
/// aggregate statistics (mean/stddev/min/max/n) and every run's
/// runResultJson, so the artifact is a pure function of the configuration —
/// byte-identical across hosts, repeat runs, and sweep job counts.
std::string aggregateJson(const scenario::AggregateResult& agg,
                          const scenario::ScenarioConfig& cfg,
                          std::string_view label);

/// Sampled series as CSV (header + one row per probe).
std::string seriesCsv(const SampleSeries& s);

/// Write `content` to `path` crash-safely (util::atomicWriteFile:
/// write-temp-fsync-rename), creating parent directories as needed — a
/// SIGKILL mid-export can never leave a torn artifact. Returns false (and
/// logs to stderr) on failure.
bool writeFile(const std::string& path, std::string_view content);

/// Write `<dir>/<label>.json` (aggregate + runs); for every run with a
/// non-empty sampled series, `<dir>/<label>.r<N>.series.csv`; and for every
/// profiled run, its wall-time profile (prof::toJson) as
/// `<dir>/<label>.r<N>.profile.json`. No-op when cfg.telemetry.exportDir is
/// empty. Returns the number of files written.
int exportAggregate(const scenario::AggregateResult& agg,
                    const scenario::ScenarioConfig& cfg,
                    std::string_view label);

}  // namespace manet::telemetry
