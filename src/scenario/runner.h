// Parallel experiment runner: executes every (point x seed) cell of an
// ExperimentPlan as an independent task on a work-stealing thread pool,
// then merges results in deterministic plan order.
//
// Determinism contract (see DESIGN.md "Parallel experiment engine"):
//  * Each task builds its own Scenario from its own config copy; runs share
//    no mutable state (per-run RNG streams, run-local tracer/profiler,
//    thread-local packet-uid counter).
//  * Workers pull tasks from a shared queue in any order, but aggregation,
//    onRun observation and export all happen after the barrier, in plan
//    order x seed order — so aggregates, exported JSON/CSV and table rows
//    are byte-identical regardless of --jobs.
//  * Exported per-run entries exclude volatile fields (wall time, the
//    profile): wall time is reported only on the SweepResult itself, and a
//    profiled run's profile goes to its own `<label>.r<N>.profile.json`.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/scenario/experiment.h"
#include "src/scenario/sweep.h"
#include "src/scenario/table.h"

namespace manet::scenario {

struct RunnerOptions {
  /// Worker threads. 1 = serial in the calling thread (no threads spawned
  /// — exactly the legacy runReplicated path); 0 = resolveJobs() default
  /// (MANET_JOBS, else hardware concurrency).
  int jobs = 0;
  /// The implicit seed axis: each point runs `replications` times with
  /// mobilitySeed = config.mobilitySeed + rep.
  int replications = 1;
  /// Retain every full RunResult (sampled series, profile, ...) in
  /// AggregateResult::runs. Off by default: a 200-point grid must not hold
  /// 200 x seeds runs' series in memory; aggregates and exports are
  /// already complete without them.
  bool keepRuns = false;
  /// Print one progress line per completed run to stderr (one whole line
  /// per run, serialized across workers).
  bool progress = false;
  /// Observer invoked during the deterministic merge (plan order, then
  /// seed order) — NOT concurrently and NOT in completion order.
  std::function<void(const SweepPoint&, int rep, const RunResult&)> onRun;
  /// Custom executor for one run (default: Scenario(cfg).run()). The
  /// config already carries the per-rep mobility seed and per-run trace
  /// path. Must be thread-safe across (point, rep) cells.
  std::function<RunResult(const SweepPoint&, int rep,
                          const ScenarioConfig&)> runFn;
};

struct PointResult {
  SweepPoint point;
  AggregateResult agg;
};

struct SweepResult {
  std::vector<PointResult> points;  // plan order
  double wallSeconds = 0.0;         // whole-sweep wall time
  int jobs = 1;                     // resolved worker count actually used
  int replications = 1;
};

/// Resolve a --jobs request: n >= 1 is taken as-is; n <= 0 falls back to
/// MANET_JOBS when set, else std::thread::hardware_concurrency (min 1).
int resolveJobs(int jobs);

/// Execute the plan. A failing cell's exception is rethrown (first failing
/// task in deterministic task order) after all workers drain. Fails fast —
/// before any cell runs — when an export directory is not writable.
SweepResult runPlan(const ExperimentPlan& plan, RunnerOptions opts = {});

/// One table row per sweep point: coordinate columns (one per axis) then
/// the plan's metric columns.
Table pointTable(const ExperimentPlan& plan, const SweepResult& result);

/// Pivot a two-axis plan: rows = first-axis values, columns = second-axis
/// values, cells = `metricName` (which must be registered on the plan).
/// The first column's title is the first axis's name.
Table pivotTable(const ExperimentPlan& plan, const SweepResult& result,
                 const std::string& metricName);

}  // namespace manet::scenario
