// Perfetto timeline export: Chrome trace_event JSON ("Trace Event Format",
// the JSON array flavour), loadable by ui.perfetto.dev and chrome://tracing.
//
// Track layout:
//  * pid 1 "nodes" — one thread track per simulated node; every trace
//    record becomes an instant event at its simulated time (microsecond
//    timestamps), with uid / cause / provenance fields in args so the
//    timeline is clickable back into the causal index.
//  * pid 1, global-scope instants — fault-plan events (node crash and
//    recover) span the whole view so cache-behaviour shifts line up with
//    the crash that caused them.
//  * pid 2 "scheduler" — one thread track per prof::Category; each captured
//    dispatch span (sim::Scheduler::dispatchSpans) becomes a complete event
//    whose timestamp is the handler's *simulated* time and whose duration
//    is the handler's *wall-clock* cost. The axis stays simulated time;
//    span width shows where host time went along it (documented in args).
//
// The writer streams: events are appended as they arrive and the array is
// closed in the destructor, so even an aborted run leaves valid JSON once
// the object is destroyed. Export is purely observational — it consumes
// records and profiler clock reads and feeds nothing back, so a run with a
// Perfetto sink attached is bit-identical to one without.
#pragma once

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/scheduler.h"
#include "src/telemetry/causal.h"
#include "src/telemetry/trace.h"

namespace manet::telemetry {

/// Process ids of the two top-level track groups.
inline constexpr std::uint32_t kPerfettoNodesPid = 1;
inline constexpr std::uint32_t kPerfettoSchedulerPid = 2;

/// Streaming trace_event JSON array writer. Emits metadata and events in
/// arrival order; closing the writer (or destroying it) terminates the
/// array so the file always parses.
class PerfettoWriter {
 public:
  explicit PerfettoWriter(const std::string& path);
  ~PerfettoWriter();

  PerfettoWriter(const PerfettoWriter&) = delete;
  PerfettoWriter& operator=(const PerfettoWriter&) = delete;

  bool ok() const { return f_ != nullptr; }
  const std::string& path() const { return path_; }
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

  /// Complete event (ph "X"): a span of `durUs` starting at `tsUs`.
  void complete(std::string_view name, std::string_view cat, double tsUs,
                double durUs, std::uint32_t pid, std::uint32_t tid,
                std::string_view argsJson = {});

  void flush();
  /// Terminate the JSON array and close the file (idempotent).
  void close();

 private:
  void emitRaw(std::string_view eventJson);

  std::string path_;
  std::FILE* f_ = nullptr;
  bool first_ = true;
  std::uint64_t written_ = 0;
};

/// Render the args object for one record: uid, cause, kind, reason,
/// provenance (id / origin / inserting node / birth time / hops), detail.
/// Returns "" when the record carries none of them.
std::string perfettoArgs(const CausalRecord& r);

/// Emit one record as instant event(s) on `w`. `trackReady(node)` must have
/// named the node's track already (PerfettoSink handles this lazily).
void perfettoEmitRecord(PerfettoWriter& w, const CausalRecord& r);

/// Append the scheduler's captured dispatch spans as complete events on the
/// per-category tracks of pid 2 (includes the track metadata).
void writeDispatchSpans(PerfettoWriter& w,
                        const std::vector<sim::DispatchSpan>& spans);

/// Live sink: converts every TraceRecord to timeline events as it is
/// emitted. Node tracks are named lazily on first sighting.
class PerfettoSink final : public TraceSink {
 public:
  explicit PerfettoSink(const std::string& path);

  bool ok() const { return w_.ok(); }
  PerfettoWriter& writer() { return w_; }

  void record(const TraceRecord& r) override;
  void flush() override { w_.flush(); }

 private:
  PerfettoWriter w_;
  std::set<net::NodeId> namedNodes_;
};

/// Offline converter: records read back from a JSONL trace -> a Perfetto
/// timeline at `outPath` (used by tools/manet_trace --perfetto). Returns
/// the number of timeline events written, or -1 if the file cannot be
/// opened.
long convertToPerfetto(const std::vector<CausalRecord>& records,
                       const std::string& outPath);

}  // namespace manet::telemetry
