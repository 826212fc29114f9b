// manet_trace: offline causal analysis of JSONL traces.
//
// Run any scenario or bench with MANET_TRACE_JSONL=<path>, then ask the
// trace the questions the end-of-run counters cannot answer:
//
//   manet_trace <trace.jsonl>                   summary: record, event and
//                                               drop totals, the fault
//                                               timeline, each flow's
//                                               originated -> delivered
//                                               count with drops by reason
//   manet_trace <trace.jsonl> --chain <uid>     full causal chain of one
//                                               packet: ancestry back to the
//                                               application packet that
//                                               started it, every record of
//                                               every packet on the chain,
//                                               and the packets it caused
//   manet_trace <trace.jsonl> --stale-report    attribute every stale-route
//                                               drop to the cache insertion
//                                               that supplied the route
//                                               (origin x entry-age table)
//   manet_trace <trace.jsonl> --perfetto <out>  convert the trace to a
//                                               Perfetto / chrome://tracing
//                                               timeline (trace_event JSON)
//
// Malformed lines (e.g. the truncated tail of a killed run) are reported to
// stderr with line numbers and skipped; analysis runs on the valid rest.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/telemetry/causal.h"
#include "src/telemetry/perfetto.h"
#include "src/telemetry/trace_reader.h"

using namespace manet;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.jsonl> [--summary] [--chain <uid>]"
               " [--stale-report] [--perfetto <out.json>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string path = argv[1];
  if (path == "--help" || path == "-h") return usage(argv[0]);

  bool summary = false;
  bool staleReport = false;
  std::vector<std::uint64_t> chains;
  std::string perfettoOut;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--summary") {
      summary = true;
    } else if (arg == "--stale-report") {
      staleReport = true;
    } else if (arg == "--chain" && i + 1 < argc) {
      char* end = nullptr;
      const std::uint64_t uid = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || uid == 0) {
        std::fprintf(stderr, "--chain: '%s' is not a packet uid\n", argv[i]);
        return 2;
      }
      chains.push_back(uid);
    } else if (arg == "--perfetto" && i + 1 < argc) {
      perfettoOut = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!summary && !staleReport && chains.empty() && perfettoOut.empty()) {
    summary = true;  // bare invocation: summarise
  }

  auto read = telemetry::readTraceFile(path);
  if (!read) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  if (!read->errors.empty()) {
    std::fprintf(stderr, "%s: skipped %zu malformed line(s):\n", path.c_str(),
                 read->errors.size());
    for (const std::string& e : read->errors) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
  }

  const telemetry::CausalIndex idx(std::move(read->records));

  if (summary) std::fputs(idx.renderSummary().c_str(), stdout);

  for (std::uint64_t uid : chains) {
    if (idx.packetRecords(uid).empty()) {
      std::fprintf(stderr, "no records for packet uid %" PRIu64 "\n", uid);
      return 1;
    }
    std::fputs(idx.renderChain(uid).c_str(), stdout);
  }

  if (staleReport) {
    std::fputs(idx.staleReport().render().c_str(), stdout);
  }

  if (!perfettoOut.empty()) {
    const long n = telemetry::convertToPerfetto(idx.records(), perfettoOut);
    if (n < 0) {
      std::fprintf(stderr, "cannot write %s\n", perfettoOut.c_str());
      return 1;
    }
    std::printf("wrote %ld timeline events to %s\n", n, perfettoOut.c_str());
  }
  return 0;
}
