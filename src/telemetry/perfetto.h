// Perfetto timeline export: Chrome trace_event JSON ("Trace Event Format",
// the JSON array flavour), loadable by ui.perfetto.dev and chrome://tracing.
// The timeline is built offline from a JSONL trace read back with
// readTraceFile (tools/manet_trace --perfetto).
//
// Track layout:
//  * pid 1 "nodes" — one thread track per simulated node; every trace
//    record becomes an instant event at its simulated time (microsecond
//    timestamps), with uid / cause / provenance fields in args so the
//    timeline is clickable back into the causal index.
//  * pid 1, global-scope instants — fault-plan events (node crash and
//    recover) span the whole view so cache-behaviour shifts line up with
//    the crash that caused them.
//
// The writer streams: events are appended in arrival order and the
// destructor closes the array, so the file parses once the writer is gone.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/causal.h"

namespace manet::telemetry {

/// Process id of the node tracks.
inline constexpr std::uint32_t kPerfettoNodesPid = 1;

/// Streaming trace_event JSON array writer. Emits metadata and events in
/// arrival order; destroying the writer terminates the array and closes
/// the file.
class PerfettoWriter {
 public:
  explicit PerfettoWriter(const std::string& path);
  ~PerfettoWriter();

  PerfettoWriter(const PerfettoWriter&) = delete;
  PerfettoWriter& operator=(const PerfettoWriter&) = delete;

  bool ok() const { return f_ != nullptr; }
  std::uint64_t eventsWritten() const { return written_; }

  /// Metadata: name the process / thread tracks.
  void processName(std::uint32_t pid, std::string_view name);
  void threadName(std::uint32_t pid, std::uint32_t tid,
                  std::string_view name);

  /// Instant event (ph "i"); global scope spans the whole timeline height.
  /// `argsJson` is a pre-rendered JSON object ("" = none).
  void instant(std::string_view name, std::string_view cat, double tsUs,
               std::uint32_t pid, std::uint32_t tid,
               std::string_view argsJson = {}, bool globalScope = false);

 private:
  void emitRaw(std::string_view eventJson);

  std::FILE* f_ = nullptr;
  bool first_ = true;
  std::uint64_t written_ = 0;
};

/// Render the args object for one record: uid, cause, kind, reason,
/// provenance (id / origin / inserting node / birth time / hops), detail.
/// Returns "" when the record carries none of them.
std::string perfettoArgs(const CausalRecord& r);

/// Emit one record as an instant event on its node's track of `w`.
/// Naming the track is the caller's job (convertToPerfetto names each
/// node's track before its first record).
void perfettoEmitRecord(PerfettoWriter& w, const CausalRecord& r);

/// Offline converter: records read back from a JSONL trace -> a Perfetto
/// timeline at `outPath` (used by tools/manet_trace --perfetto). Returns
/// the number of timeline events written, or -1 if the file cannot be
/// opened.
long convertToPerfetto(const std::vector<CausalRecord>& records,
                       const std::string& outPath);

}  // namespace manet::telemetry
