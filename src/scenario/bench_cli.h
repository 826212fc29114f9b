// The command lines of `manet_bench`. A bench plan takes one flag set:
//
//   --jobs N            worker threads (0 = auto; default MANET_JOBS or
//                       hardware concurrency). Output bytes are identical
//                       for every value of N.
//   --scale TIER        tiny | quick | full (default: quick)
//   --seeds N           mobility-seed replications per point (default:
//                       the scale tier's replication count)
//   --filter AXIS=VALUE restrict a plan axis to one value (repeatable);
//                       unknown axis or value is a hard error
//   --export-dir DIR    structured export directory (sets MANET_EXPORT_DIR
//                       so telemetry config and table CSV mirroring pick
//                       it up)
//   --progress          per-run progress lines on stderr
//   --help              usage and exit
//
// `manet_bench run` takes one scenario's knobs instead (RunArgs below).
// Both parse numbers strictly: a value with trailing junk or out of range
// is a usage error (exit 2), never a silently different run.
//
// Parse once at the top of main() — before building any ScenarioConfig,
// because --export-dir works by setting the environment the config reads.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/core/dsr_config.h"
#include "src/scenario/experiment.h"
#include "src/scenario/runner.h"
#include "src/scenario/sweep.h"

namespace manet::scenario {

class BenchCli {
 public:
  /// Parse argv. Prints usage and calls std::exit(0) on --help; prints the
  /// error and calls std::exit(2) on a malformed flag. `benchName` labels
  /// the usage text.
  BenchCli(int argc, char** argv, std::string benchName);

  /// Scale tier (--scale, else quick), with `replications` set to the
  /// seed count per point (--seeds, else the tier's count).
  const BenchScale& scale() const { return scale_; }

  /// Runner options carrying jobs / replications / --progress. Callers add
  /// onRun / runFn / keepRuns as needed.
  RunnerOptions runnerOptions() const;

  /// Apply the filters whose axis the plan has (a bench may run several
  /// plans, e.g. the ablations); a matching axis with a non-matching value
  /// is a hard error. Call checkFiltersConsumed() after the last plan so a
  /// filter whose axis matched NO plan (a typo) still fails loudly.
  ExperimentPlan& applyMatchingFilters(ExperimentPlan& plan) const;
  void checkFiltersConsumed() const;

 private:
  std::string benchName_;
  BenchScale scale_;
  int jobs_ = 0;
  bool progress_ = false;
  std::vector<std::pair<std::string, std::string>> filters_;
  /// Tracks which filters applyMatchingFilters has matched so far.
  mutable std::vector<bool> filterUsed_;
};

/// `manet_bench run`: one scenario with every knob a flag, replicated over
/// `seeds` mobility seeds. Unset knobs keep ScenarioConfig's defaults,
/// which is also where --help takes the defaults it prints.
struct RunArgs {
  ScenarioConfig config;  // dsr built from the variant and cache flags
  core::Variant variant = core::Variant::kBase;
  int seeds = 1;
  std::string csvPath;  // --csv: one row per seed
};

/// Parse `run`'s argv like BenchCli: --help exits 0, a malformed flag
/// exits 2. `name` labels the usage text.
RunArgs parseRunArgs(int argc, char** argv, const std::string& name);

}  // namespace manet::scenario
