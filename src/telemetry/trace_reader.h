// Reading a JSONL trace written by JsonlFileSink back into CausalRecords:
// each line is parsed once with util::parseJson. Shared by tools/manet_trace
// and the trace tests.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/telemetry/causal.h"

namespace manet::telemetry {

/// A trace read back from disk: its records in file order, plus a
/// line-numbered error for every rejected line. A truncated tail (the
/// common failure: a run killed mid-write) shows up as one error on the
/// final line instead of silently vanishing from the analysis.
struct TraceReadResult {
  std::vector<CausalRecord> records;
  std::vector<std::string> errors;  // "line N: <why>" per rejected line
};

/// Read and validate a JSONL trace: every non-empty line must be a JSON
/// object with a string "ev" field. Returns nullopt only if the file cannot
/// be opened; rejected lines are collected, not fatal.
std::optional<TraceReadResult> readTraceFile(const std::string& path);

}  // namespace manet::telemetry
