// Shared command-line front end for the bench binaries. Every bench used
// to hand-roll its own env parsing; they now share one flag set:
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
// Parse once at the top of main() — before building any ScenarioConfig,
// because --export-dir works by setting the environment the config reads.
#pragma once

#include <string>
#include <utility>
#include <vector>

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

  /// Scale tier (--scale, else quick).
  const BenchScale& scale() const { return scale_; }

  /// Seed replications per point (--seeds, else the tier's count).
  int replications() const { return replications_; }

  /// Requested worker count (0 = resolveJobs default).
  int jobs() const { return jobs_; }

  /// Runner options carrying jobs / replications / --progress. Callers add
  /// onRun / runFn / keepRuns as needed.
  RunnerOptions runnerOptions() const;

  /// Apply every --filter AXIS=VALUE to the plan (hard error on unknown
  /// axis or value). Returns the plan for chaining.
  ExperimentPlan& applyFilters(ExperimentPlan& plan) const;

  /// Multi-plan variant (benches that run several plans, e.g. the
  /// ablations): filters whose axis the plan does not have are skipped;
  /// a matching axis with a non-matching value is still a hard error.
  /// Call checkFiltersConsumed() after the last plan so a filter whose
  /// axis matched NO plan (a typo) still fails loudly.
  ExperimentPlan& applyMatchingFilters(ExperimentPlan& plan) const;
  void checkFiltersConsumed() const;

 private:
  std::string benchName_;
  BenchScale scale_;
  int replications_ = 1;
  int jobs_ = 0;
  bool progress_ = false;
  std::vector<std::pair<std::string, std::string>> filters_;
  /// Tracks which filters applyMatchingFilters has matched so far.
  mutable std::vector<bool> filterUsed_;
};

}  // namespace manet::scenario
