// The paper's experiments as data. Each registered bench plan builds the
// sweeps behind one figure, table or extension study (Fig. 1's timeout
// sweep, Table 3's cache metrics, the ablations, ...) together with the
// tables it prints and the CSV files it writes. `manet_bench <plan>` runs
// any of them with BenchCli's flags; tests run them in process.
//
// A plan that needs per-run state beyond the aggregate (the TCP counters,
// the crash counts) keeps it inside its own hooks and table builders, so a
// freshly built BenchPlan always starts empty and nothing here is global.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/scenario/experiment.h"
#include "src/scenario/runner.h"
#include "src/scenario/sweep.h"
#include "src/scenario/table.h"

namespace manet::scenario {

/// One table a sweep prints: its title, its CSV file name, and how it is
/// built from the sweep's result.
struct PlanTable {
  std::string title;
  std::string csvName;
  std::function<Table(const ExperimentPlan&, const SweepResult&)> build;
};

/// One sweep of a bench plan and the tables printed after it.
struct PlanSweep {
  ExperimentPlan plan;
  std::vector<PlanTable> tables;
  /// Optional RunnerOptions hooks; they may share state with `tables`.
  decltype(RunnerOptions::runFn) runFn;
  decltype(RunnerOptions::onRun) onRun;
};

struct BenchPlan {
  std::string header;             // printed once, before the first sweep
  std::vector<PlanSweep> sweeps;  // run in order
};

struct PlanEntry {
  const char* name;
  /// `scale.replications` is the seed count per point (after --seeds).
  BenchPlan (*build)(const BenchScale& scale);
};

/// Every registered plan, in `manet_bench --list` order.
std::span<const PlanEntry> planRegistry();

/// Run one sweep with `opts` plus the sweep's own hooks.
SweepResult runSweep(const PlanSweep& sweep, RunnerOptions opts);

}  // namespace manet::scenario
