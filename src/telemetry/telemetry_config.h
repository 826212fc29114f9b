// Telemetry knobs: one struct switches tracing, sampling and structured
// export for a run. Every knob but the in-memory ring has an
// environment-variable override so the bench binaries become
// machine-readable without recompiling:
//
//   MANET_TRACE_JSONL=<path>   stream every trace record to <path> as JSONL
//                              (replicated runs get a .rN suffix per seed)
//   MANET_SAMPLE_PERIOD=<sec>  periodic time-series probe (0 = off)
//   MANET_EXPORT_DIR=<dir>     runReplicated / Table write JSON + CSV
//                              artifacts into <dir>
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "src/sim/time.h"

namespace manet::telemetry {

struct TelemetryConfig {
  /// Keep the most recent `ringCapacity` records in memory (0 = off); set
  /// in code only, since the ring is read in-process via Scenario::ring().
  std::size_t ringCapacity = 0;
  /// Stream records to this JSONL file ("" = off).
  std::string traceJsonlPath;
  /// Periodic time-series probe interval (zero = off). Default when
  /// enabled via env without a value: 1 s of simulated time.
  sim::Time samplePeriod = sim::Time::zero();
  /// Directory for structured run artifacts ("" = off).
  std::string exportDir;

  /// `base` overlaid with any MANET_* environment overrides.
  static TelemetryConfig fromEnv(TelemetryConfig base);
  static TelemetryConfig fromEnv();
};

/// Path variant for replicated runs: "trace.jsonl" -> "trace.r2.jsonl".
/// Paths without an extension get the suffix appended ("trace" ->
/// "trace.r2"); a dot inside a directory name is not an extension
/// ("out.d/trace" -> "out.d/trace.r2").
std::string perRunPath(const std::string& path, int run);

/// Sweep variant: tags the path with the sweep point's label before the
/// replication suffix, so every (point x seed) run of a parallel sweep
/// streams its trace to its own file: "trace.jsonl" ->
/// "trace.fig1_t0.25.r1.jsonl".
std::string perRunPath(const std::string& path, std::string_view pointLabel,
                       int run);

}  // namespace manet::telemetry
