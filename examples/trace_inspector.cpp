// Replay a JSONL trace written by the telemetry layer and summarise it:
// event totals, per-reason drop counts, and a per-flow breakdown of where
// each flow's packets died. This is the offline half of the trace pipeline —
// run any bench or scenario with MANET_TRACE_JSONL=/tmp/trace.jsonl, then:
//
//   ./trace_inspector /tmp/trace.jsonl
//
// or, with no trace at hand, `./trace_inspector --demo` runs a small
// congested scenario, writes a trace, and inspects it in one go.
//
// One packet's causal chain is read with `tools/manet_trace --chain <uid>`.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/scenario/scenario.h"
#include "src/telemetry/trace_reader.h"

using namespace manet;

namespace {

struct FlowStats {
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  std::map<std::string, std::uint64_t> dropsByReason;
};

/// One decoded fault-injection record (node_crash / node_recover /
/// link_blackout / noise_burst / traffic_surge).
struct FaultEntry {
  double t = 0.0;
  std::string what;
};

bool isFaultEvent(const std::string& ev) {
  return ev == "node_crash" || ev == "node_recover" ||
         ev == "link_blackout" || ev == "noise_burst" ||
         ev == "traffic_surge";
}

FaultEntry decodeFault(const std::string& ev, const std::string& line,
                       double t) {
  FaultEntry e;
  e.t = t;
  const auto node = telemetry::jsonNumberField(line, "node");
  const auto src = telemetry::jsonNumberField(line, "src");
  const auto dst = telemetry::jsonNumberField(line, "dst");
  const auto detail = telemetry::jsonNumberField(line, "detail");
  char buf[128];
  if (ev == "node_crash") {
    std::snprintf(buf, sizeof(buf), "node %d crashed",
                  node ? static_cast<int>(*node) : -1);
  } else if (ev == "node_recover") {
    std::snprintf(buf, sizeof(buf), "node %d recovered%s",
                  node ? static_cast<int>(*node) : -1,
                  detail && *detail != 0.0 ? " (caches wiped)" : "");
  } else if (ev == "link_blackout") {
    std::snprintf(buf, sizeof(buf), "link %d->%d blacked out for %.3f s",
                  src ? static_cast<int>(*src) : -1,
                  dst ? static_cast<int>(*dst) : -1,
                  detail ? *detail / 1e9 : 0.0);
  } else if (ev == "noise_burst") {
    std::snprintf(buf, sizeof(buf), "noise burst for %.3f s",
                  detail ? *detail / 1e9 : 0.0);
  } else {
    std::snprintf(buf, sizeof(buf), "traffic surge for %.3f s",
                  detail ? *detail / 1e9 : 0.0);
  }
  e.what = buf;
  return e;
}

std::string writeDemoTrace(bool withFaults) {
  const std::string path = "/tmp/trace_inspector_demo.jsonl";
  scenario::ScenarioConfig cfg;
  cfg.numNodes = 20;
  cfg.field = {900.0, 450.0};
  cfg.numFlows = 10;
  cfg.packetsPerSecond = 6.0;
  cfg.duration = sim::Time::seconds(60);
  cfg.mobilitySeed = 3;
  cfg.telemetry = telemetry::TelemetryConfig{};
  cfg.telemetry.traceJsonlPath = path;
  if (withFaults) {
    cfg.fault = {};
    cfg.fault.churn.fraction = 0.15;
    cfg.fault.churn.meanUpTimeSec = 15.0;
    cfg.fault.churn.meanDownTimeSec = 4.0;
    cfg.fault.noise.meanGapSec = 20.0;
    cfg.fault.noise.meanDurationSec = 0.5;
  }
  std::printf("running demo scenario (%d nodes, %d flows, %.0f s%s)...\n",
              cfg.numNodes, cfg.numFlows, cfg.duration.toSeconds(),
              withFaults ? ", with fault injection" : "");
  scenario::runScenario(cfg);
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (argc == 2 && std::string(argv[1]) == "--demo") {
    path = writeDemoTrace(false);
  } else if (argc == 2 && std::string(argv[1]) == "--demo-faults") {
    path = writeDemoTrace(true);
  } else if (argc == 2 && std::string(argv[1]) != "--help" &&
             std::string(argv[1]) != "-h") {
    path = argv[1];
  } else {
    std::fprintf(
        stderr,
        "usage: %s <trace.jsonl>           summarise a JSONL trace\n"
        "       %s --demo | --demo-faults  run a demo scenario first\n",
        argv[0], argv[0]);
    return 2;
  }

  const auto checked = telemetry::readJsonlFileChecked(path);
  if (!checked) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  if (checked->skipped > 0) {
    std::fprintf(stderr, "%s: skipped %zu malformed line(s):\n", path.c_str(),
                 checked->skipped);
    for (const std::string& e : checked->errors) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
  }
  const std::vector<std::string>* lines = &checked->lines;

  std::map<std::string, std::uint64_t> eventTotals;
  std::map<std::string, std::uint64_t> dropTotals;
  std::map<std::uint32_t, FlowStats> flows;
  std::vector<FaultEntry> faults;
  double firstT = 0.0, lastT = 0.0;
  bool any = false;

  for (const std::string& line : *lines) {
    const auto ev = telemetry::jsonStringField(line, "ev");
    if (!ev) continue;
    ++eventTotals[*ev];
    const auto t = telemetry::jsonNumberField(line, "t");
    if (t) {
      if (!any) firstT = *t;
      lastT = *t;
      any = true;
    }
    if (isFaultEvent(*ev)) {
      faults.push_back(decodeFault(*ev, line, t ? *t : 0.0));
    }
    const auto flow = telemetry::jsonNumberField(line, "flow");
    if (*ev == "pkt_originate" && flow) {
      ++flows[static_cast<std::uint32_t>(*flow)].originated;
    } else if (*ev == "pkt_deliver" && flow) {
      ++flows[static_cast<std::uint32_t>(*flow)].delivered;
    } else if (*ev == "pkt_drop") {
      const auto reason = telemetry::jsonStringField(line, "reason");
      const std::string why = reason ? *reason : "unknown";
      ++dropTotals[why];
      if (flow) ++flows[static_cast<std::uint32_t>(*flow)].dropsByReason[why];
    }
  }

  std::printf("\n%s: %zu records, t = [%.3f s, %.3f s]\n\n", path.c_str(),
              lines->size(), firstT, lastT);

  std::printf("event totals:\n");
  for (const auto& [ev, n] : eventTotals)
    std::printf("  %-18s %10llu\n", ev.c_str(),
                static_cast<unsigned long long>(n));

  std::printf("\ndrop reasons:\n");
  if (dropTotals.empty()) std::printf("  (no drops)\n");
  for (const auto& [why, n] : dropTotals)
    std::printf("  %-22s %10llu\n", why.c_str(),
                static_cast<unsigned long long>(n));

  if (!faults.empty()) {
    std::printf("\nfault timeline (%zu events):\n", faults.size());
    // Show at most the first 40 entries; long churn runs get noisy.
    const std::size_t shown = std::min<std::size_t>(faults.size(), 40);
    for (std::size_t i = 0; i < shown; ++i)
      std::printf("  t=%9.3f s  %s\n", faults[i].t, faults[i].what.c_str());
    if (shown < faults.size())
      std::printf("  ... %zu more\n", faults.size() - shown);
  }

  std::printf("\nper-flow lifecycle (flow: originated -> delivered, drops by"
              " reason):\n");
  for (const auto& [flowId, fs] : flows) {
    const std::uint64_t lost = fs.originated > fs.delivered
                                   ? fs.originated - fs.delivered
                                   : 0;
    std::printf("  flow %2u: %6llu -> %6llu  (%5.1f%% delivered, %llu lost)\n",
                flowId, static_cast<unsigned long long>(fs.originated),
                static_cast<unsigned long long>(fs.delivered),
                fs.originated > 0 ? 100.0 * static_cast<double>(fs.delivered) /
                                        static_cast<double>(fs.originated)
                                  : 0.0,
                static_cast<unsigned long long>(lost));
    for (const auto& [why, n] : fs.dropsByReason)
      std::printf("           %-22s %6llu\n", why.c_str(),
                  static_cast<unsigned long long>(n));
  }

  // Sanity line mirroring the reconcile test. mac_duplicate drops are
  // redundant copies (the original frame was also received), so they don't
  // count against originated packets.
  std::uint64_t drops = 0;
  for (const auto& [why, n] : dropTotals)
    if (why != "mac_duplicate") drops += n;
  const auto orig = eventTotals.count("pkt_originate")
                        ? eventTotals.at("pkt_originate")
                        : 0;
  const auto deliv = eventTotals.count("pkt_deliver")
                         ? eventTotals.at("pkt_deliver")
                         : 0;
  std::printf("\noriginated %llu, delivered %llu, dropped %llu"
              " (in-flight/buffered at end: %lld)\n",
              static_cast<unsigned long long>(orig),
              static_cast<unsigned long long>(deliv),
              static_cast<unsigned long long>(drops),
              static_cast<long long>(orig) - static_cast<long long>(deliv) -
                  static_cast<long long>(drops));
  return 0;
}
