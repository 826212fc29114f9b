// perf_baseline: the repo's performance regression harness.
//
// Runs the canonical scenarios (paper baseline, high mobility, faulted
// churn, large-N stress) with profiling enabled, takes the median wall time
// of >= 3 repetitions each, and writes a schema-versioned BENCH_<label>.json
// (see src/prof/bench_report.h). Compare mode diffs two BENCH files and
// exits non-zero when any scenario's median wall time regressed past the
// threshold (CI uses --report-only: machines differ, so cross-machine
// deltas inform rather than gate).
//
//   perf_baseline [--quick] [--reps N] [--label L] [--out FILE]
//   perf_baseline --compare BASELINE CANDIDATE [--threshold 0.2]
//                 [--report-only]
//   perf_baseline --self-test
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/dsr_config.h"
#include "src/prof/bench_report.h"
#include "src/prof/profiler.h"
#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/scenario/sweep.h"
#include "src/telemetry/export.h"

namespace {

using namespace manet;

struct NamedScenario {
  std::string name;
  scenario::ScenarioConfig cfg;
};

// Every knob pinned explicitly — the baseline must not shift when MANET_*
// env vars are set. Profiling on (that is what we are measuring with),
// heartbeat off (stderr writes would pollute the timing).
scenario::ScenarioConfig pinnedBase() {
  scenario::ScenarioConfig cfg;
  cfg.telemetry = telemetry::TelemetryConfig{};
  cfg.fault = fault::FaultPlan{};
  cfg.prof = prof::ProfConfig{};
  cfg.prof.enabled = true;
  cfg.prof.histograms = true;
  cfg.mobilitySeed = 11;
  cfg.trafficSeed = 42;
  return cfg;
}

std::vector<NamedScenario> canonicalScenarios(bool quick) {
  std::vector<NamedScenario> out;

  // The paper's evaluation shape (Section 4.1) at bench scale: moderate
  // mobility, 512-byte CBR flows.
  {
    scenario::ScenarioConfig cfg = pinnedBase();
    cfg.numNodes = quick ? 20 : 50;
    cfg.field = quick ? Vec2{800.0, 400.0} : Vec2{1500.0, 500.0};
    cfg.numFlows = quick ? 5 : 12;
    cfg.duration = sim::Time::seconds(quick ? 10 : 60);
    cfg.pause = sim::Time::seconds(30);
    out.push_back({"paper_baseline", cfg});
  }

  // Continuous fast motion: stresses route repair, cache invalidation and
  // the mobility evaluation path.
  {
    scenario::ScenarioConfig cfg = pinnedBase();
    cfg.numNodes = quick ? 20 : 50;
    cfg.field = quick ? Vec2{800.0, 400.0} : Vec2{1500.0, 500.0};
    cfg.numFlows = quick ? 5 : 12;
    cfg.duration = sim::Time::seconds(quick ? 10 : 60);
    cfg.pause = sim::Time::zero();
    cfg.maxSpeed = 30.0;
    out.push_back({"high_mobility", cfg});
  }

  // Node churn plus noise bursts: exercises the fault injector and the
  // protocol's failure paths (timeouts, salvage, negative cache).
  {
    scenario::ScenarioConfig cfg = pinnedBase();
    cfg.numNodes = quick ? 20 : 50;
    cfg.field = quick ? Vec2{800.0, 400.0} : Vec2{1500.0, 500.0};
    cfg.numFlows = quick ? 5 : 12;
    cfg.duration = sim::Time::seconds(quick ? 10 : 60);
    cfg.pause = sim::Time::seconds(30);
    cfg.fault.churn.fraction = 0.2;
    cfg.fault.churn.meanUpTimeSec = 15.0;
    cfg.fault.churn.meanDownTimeSec = 5.0;
    cfg.fault.noise.meanGapSec = 10.0;
    cfg.fault.noise.meanDurationSec = 1.0;
    cfg.fault.noise.corruptProb = 0.3;
    out.push_back({"faulted_churn", cfg});
  }

  // Scheduler / channel stress: most nodes, most flows, shortest horizon.
  {
    scenario::ScenarioConfig cfg = pinnedBase();
    cfg.numNodes = quick ? 40 : 100;
    cfg.field = quick ? Vec2{1200.0, 500.0} : Vec2{2200.0, 600.0};
    cfg.numFlows = quick ? 10 : 25;
    cfg.duration = sim::Time::seconds(quick ? 8 : 30);
    cfg.pause = sim::Time::seconds(30);
    out.push_back({"large_n_stress", cfg});
  }

  return out;
}

// Hot nodes worth listing per scenario: enough to see the spatial pattern,
// few enough that BENCH files stay reviewable in a diff.
constexpr std::size_t kTopNodes = 10;

prof::BenchScenario measure(const NamedScenario& ns, int reps,
                            std::string* heatmapOut) {
  prof::BenchScenario out;
  out.name = ns.name;
  out.repetitions = reps;

  // Repetitions are timing samples of the SAME config (not seed-varied),
  // expressed as a no-op "rep" axis. jobs is pinned to 1: concurrent reps
  // would contend for cores and corrupt the very wall times being measured.
  scenario::ExperimentPlan plan(ns.name, ns.cfg);
  std::vector<scenario::AxisValue> repAxis;
  for (int i = 0; i < reps; ++i) {
    repAxis.push_back({std::to_string(i + 1), {}});
  }
  plan.axis("rep", std::move(repAxis));
  scenario::RunnerOptions opts;
  opts.jobs = 1;
  opts.keepRuns = true;
  opts.onRun = [&](const scenario::SweepPoint& point, int,
                   const scenario::RunResult& r) {
    std::fprintf(stderr, "  %s rep %zu/%d: %.3f s, %llu events\n",
                 ns.name.c_str(), point.index + 1, reps, r.wallSeconds,
                 static_cast<unsigned long long>(r.eventsExecuted));
  };
  const scenario::SweepResult sweep = scenario::runPlan(plan, opts);

  std::vector<scenario::RunResult> results;
  results.reserve(static_cast<std::size_t>(reps));
  for (const scenario::PointResult& p : sweep.points) {
    results.push_back(p.agg.runs.at(0));
    out.wallSecondsAll.push_back(results.back().wallSeconds);
  }

  // Median repetition by wall time (lower-middle for even rep counts).
  std::vector<std::size_t> order(results.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return results[a].wallSeconds < results[b].wallSeconds;
  });
  const scenario::RunResult& med = results[order[(order.size() - 1) / 2]];

  out.events = med.eventsExecuted;
  out.wallSecondsMedian = med.wallSeconds;
  out.eventsPerSecMedian =
      med.wallSeconds > 0.0
          ? static_cast<double>(med.eventsExecuted) / med.wallSeconds
          : 0.0;
  out.peakRssBytes = med.profile.peakRssBytes;
  out.schedQueuePeak = med.schedQueuePeak;
  for (const prof::CategoryReport& cat : med.profile.categories) {
    if (cat.scopes == 0 && cat.dispatches == 0) continue;
    out.categorySelfSeconds.emplace_back(
        prof::toString(cat.category),
        static_cast<double>(cat.selfNs) * 1e-9);
  }

  // Schema v2: hotspot observability from the median repetition. Top nodes
  // rank by deterministic activation count (node id breaks ties) so the
  // list is identical across same-seed runs; selfSeconds rides along as
  // informational wall time.
  out.hasHotspot = med.profile.enabled;
  if (out.hasHotspot) {
    const prof::HotspotReport& h = med.profile.hotspot;
    std::vector<const prof::EntityReport*> ranked;
    ranked.reserve(h.entities.size());
    for (const prof::EntityReport& e : h.entities) ranked.push_back(&e);
    std::sort(ranked.begin(), ranked.end(),
              [](const prof::EntityReport* a, const prof::EntityReport* b) {
                if (a->activations != b->activations) {
                  return a->activations > b->activations;
                }
                return a->node < b->node;
              });
    if (ranked.size() > kTopNodes) ranked.resize(kTopNodes);
    for (const prof::EntityReport* e : ranked) {
      prof::BenchTopNode tn;
      tn.node = e->node;
      if (e->node < med.nodePositions.size()) {
        tn.x = med.nodePositions[e->node].x;
        tn.y = med.nodePositions[e->node].y;
      }
      tn.activations = e->activations;
      tn.framesHeard = e->framesHeard;
      tn.selfSeconds = static_cast<double>(e->selfNs) * 1e-9;
      out.topNodes.push_back(tn);
    }
    out.fanout = h.fanout;
    out.queue = h.queue;
    out.alloc = h.alloc;
    if (heatmapOut != nullptr) {
      std::string csv = telemetry::heatmapCsv(med, ns.name);
      if (!csv.empty()) {
        if (!heatmapOut->empty()) {
          // Strip the repeated header: one header line for the whole file.
          csv.erase(0, csv.find('\n') + 1);
        }
        *heatmapOut += csv;
      }
    }
  }
  return out;
}

bool readWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int runCompare(const std::string& basePath, const std::string& candPath,
               double threshold, bool reportOnly) {
  std::string baseText, candText, err;
  if (!readWholeFile(basePath, &baseText)) {
    std::fprintf(stderr, "cannot read baseline %s\n", basePath.c_str());
    return 2;
  }
  if (!readWholeFile(candPath, &candText)) {
    std::fprintf(stderr, "cannot read candidate %s\n", candPath.c_str());
    return 2;
  }
  const auto base = prof::parseBenchReport(baseText, &err);
  if (!base) {
    std::fprintf(stderr, "baseline %s: %s\n", basePath.c_str(), err.c_str());
    return 2;
  }
  const auto cand = prof::parseBenchReport(candText, &err);
  if (!cand) {
    std::fprintf(stderr, "candidate %s: %s\n", candPath.c_str(), err.c_str());
    return 2;
  }
  const prof::BenchComparison cmp =
      prof::compareBenchReports(*base, *cand, threshold);
  std::fputs(prof::formatComparison(cmp).c_str(), stdout);
  if (cmp.regressed && reportOnly) {
    std::fputs("(report-only mode: not failing)\n", stdout);
    return 0;
  }
  return cmp.regressed ? 1 : 0;
}

// Self-test of the regression detector: a synthetic 25% slowdown must be
// flagged at a 20% threshold, and a 10% slowdown must pass — exercised
// through the full serialize -> parse -> compare path.
int runSelfTest() {
  prof::BenchReport base;
  base.label = "selftest_base";
  for (const char* name : {"alpha", "beta"}) {
    prof::BenchScenario s;
    s.name = name;
    s.repetitions = 3;
    s.events = 1000000;
    s.wallSecondsMedian = 2.0;
    s.eventsPerSecMedian = 500000.0;
    s.wallSecondsAll = {2.1, 2.0, 2.2};
    s.categorySelfSeconds.emplace_back("mac", 0.8);
    base.scenarios.push_back(std::move(s));
  }

  prof::BenchReport cand = base;
  cand.label = "selftest_cand";
  cand.scenarios[0].wallSecondsMedian = 2.0 * 1.25;  // alpha: regressed
  cand.scenarios[1].wallSecondsMedian = 2.0 * 1.10;  // beta: within budget
  cand.scenarios[0].categorySelfSeconds[0].second = 1.3;  // mac got slower

  std::string err;
  const auto reBase = prof::parseBenchReport(prof::toJson(base), &err);
  const auto reCand = prof::parseBenchReport(prof::toJson(cand), &err);
  if (!reBase || !reCand) {
    std::fprintf(stderr, "self-test: round-trip parse failed: %s\n",
                 err.c_str());
    return 1;
  }

  const prof::BenchComparison cmp =
      prof::compareBenchReports(*reBase, *reCand, 0.2);
  const std::string table = prof::formatComparison(cmp);
  std::fputs(table.c_str(), stdout);
  if (!cmp.regressed || cmp.rows.size() != 2 || !cmp.rows[0].regressed ||
      cmp.rows[1].regressed) {
    std::fprintf(stderr,
                 "self-test FAILED: 25%% slowdown not flagged (or 10%% "
                 "falsely flagged) at 20%% threshold\n");
    return 1;
  }
  // The failure message must name the worst-moving category with both of
  // its values, not just the scenario.
  if (cmp.rows[0].worstCategory != "mac" ||
      table.find("worst category: mac") == std::string::npos) {
    std::fprintf(stderr,
                 "self-test FAILED: regression detail does not name the "
                 "worst-moving category\n");
    return 1;
  }
  std::puts("self-test passed: regression detector behaves as specified");
  return 0;
}

// Serial-vs-parallel wall-time comparison on a small sweep, verifying the
// runner's determinism contract along the way: the aggregate JSON for every
// sweep point must be byte-identical between --jobs 1 and --jobs N.
int runSweepSpeedup(int jobs) {
  scenario::ScenarioConfig cfg = pinnedBase();
  cfg.prof = prof::ProfConfig{};  // timing the runner, not the profiler
  cfg.numNodes = 20;
  cfg.field = Vec2{800.0, 400.0};
  cfg.numFlows = 5;
  cfg.duration = sim::Time::seconds(10);
  cfg.pause = sim::Time::zero();

  // Eight independent cells (a fig1-style timeout axis), one seed each —
  // enough parallelism to saturate a typical 4-core CI runner.
  scenario::ExperimentPlan plan("speedup", cfg);
  plan.axis("timeout_s", {0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0},
            [](scenario::ScenarioConfig& c, double t) {
              c.dsr = core::makeVariantConfig(core::Variant::kStaticExpiry,
                                              sim::Time::fromSeconds(t));
            });

  const auto sweepOnce = [&plan](int j) {
    scenario::RunnerOptions opts;
    opts.jobs = j;
    opts.keepRuns = true;
    return scenario::runPlan(plan, opts);
  };
  const int parJobs = scenario::resolveJobs(jobs);
  std::fprintf(stderr, "sweep-speedup: 8 cells, serial then %d jobs\n",
               parJobs);
  const scenario::SweepResult serial = sweepOnce(1);
  const scenario::SweepResult parallel = sweepOnce(parJobs);

  bool identical = true;
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    const std::string a = telemetry::aggregateJson(
        serial.points[p].agg, serial.points[p].point.config,
        serial.points[p].point.label);
    const std::string b = telemetry::aggregateJson(
        parallel.points[p].agg, parallel.points[p].point.config,
        parallel.points[p].point.label);
    if (a != b) {
      identical = false;
      std::fprintf(stderr, "DIVERGED at point %s\n",
                   serial.points[p].point.label.c_str());
    }
  }

  const double speedup = parallel.wallSeconds > 0.0
                             ? serial.wallSeconds / parallel.wallSeconds
                             : 0.0;
  std::printf("jobs  wall_s  speedup\n");
  std::printf("%4d  %6.2f  %7.2fx\n", 1, serial.wallSeconds, 1.0);
  std::printf("%4d  %6.2f  %7.2fx\n", parallel.jobs, parallel.wallSeconds,
              speedup);
  std::printf("aggregate JSON byte-identical across job counts: %s\n",
              identical ? "yes" : "NO");
  return identical ? 0 : 1;
}

// "--floor NAME:EVPS" spec: after measuring, the named scenario's median
// events/sec must meet the floor or the run exits non-zero. This is the
// absolute perf gate (compare mode is relative and report-only on CI).
struct FloorSpec {
  std::string scenario;
  double eventsPerSec = 0.0;
};

bool parseFloor(const std::string& arg, FloorSpec* out) {
  const std::size_t colon = arg.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  out->scenario = arg.substr(0, colon);
  out->eventsPerSec = std::atof(arg.c_str() + colon + 1);
  return out->eventsPerSec > 0.0;
}

int checkFloors(const prof::BenchReport& report,
                const std::vector<FloorSpec>& floors) {
  int rc = 0;
  for (const FloorSpec& floor : floors) {
    const prof::BenchScenario* found = nullptr;
    for (const prof::BenchScenario& s : report.scenarios) {
      if (s.name == floor.scenario) found = &s;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "floor: no scenario named %s in this run\n",
                   floor.scenario.c_str());
      rc = 1;
      continue;
    }
    const bool ok = found->eventsPerSecMedian >= floor.eventsPerSec;
    std::printf("floor %-20s %12.0f ev/s (need >= %.0f): %s\n",
                floor.scenario.c_str(), found->eventsPerSecMedian,
                floor.eventsPerSec, ok ? "ok" : "FAIL");
    if (!ok) rc = 1;
  }
  return rc;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--quick] [--reps N] [--label L] [--out FILE]\n"
      "          [--heatmap FILE]\n"
      "          [--floor SCENARIO:EVENTS_PER_SEC]...\n"
      "       %s --compare BASELINE CANDIDATE [--threshold T] "
      "[--report-only]\n"
      "       %s --sweep-speedup [--jobs N]\n"
      "       %s --self-test\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool reportOnly = false;
  int reps = 3;
  double threshold = 0.2;
  std::string label = "local";
  std::string outPath;
  std::string heatmapPath;
  std::string comparePaths[2];
  int compareCount = -1;
  bool selfTest = false;
  bool sweepSpeedup = false;
  int jobs = 0;
  std::vector<FloorSpec> floors;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--floor" && i + 1 < argc) {
      FloorSpec floor;
      if (!parseFloor(argv[++i], &floor)) return usage(argv[0]);
      floors.push_back(std::move(floor));
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      outPath = argv[++i];
    } else if (arg == "--heatmap" && i + 1 < argc) {
      heatmapPath = argv[++i];
    } else if (arg == "--compare" && i + 2 < argc) {
      comparePaths[0] = argv[++i];
      comparePaths[1] = argv[++i];
      compareCount = 2;
    } else if (arg == "--threshold" && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
    } else if (arg == "--report-only") {
      reportOnly = true;
    } else if (arg == "--self-test") {
      selfTest = true;
    } else if (arg == "--sweep-speedup") {
      sweepSpeedup = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }

  if (selfTest) return runSelfTest();
  if (sweepSpeedup) return runSweepSpeedup(jobs);
  if (compareCount == 2) {
    return runCompare(comparePaths[0], comparePaths[1], threshold,
                      reportOnly);
  }
  if (reps < 1) return usage(argv[0]);

  prof::BenchReport report;
  report.label = label;
  const std::vector<NamedScenario> scenarios = canonicalScenarios(quick);
  std::fprintf(stderr, "perf_baseline: %zu scenarios x %d reps (%s)\n",
               scenarios.size(), reps, quick ? "quick" : "full");
  std::string heatmap;
  for (const NamedScenario& ns : scenarios) {
    report.scenarios.push_back(
        measure(ns, reps, heatmapPath.empty() ? nullptr : &heatmap));
  }

  const std::string json = prof::toJson(report);
  if (outPath.empty()) outPath = "BENCH_" + label + ".json";
  if (!telemetry::writeFile(outPath, json)) return 2;
  std::fprintf(stderr, "wrote %s\n", outPath.c_str());
  if (!heatmapPath.empty()) {
    if (!telemetry::writeFile(heatmapPath, heatmap)) return 2;
    std::fprintf(stderr, "wrote %s\n", heatmapPath.c_str());
  }

  // Console summary.
  for (const prof::BenchScenario& s : report.scenarios) {
    std::printf("%-20s %9.3f s  %12.0f ev/s  queue peak %llu\n",
                s.name.c_str(), s.wallSecondsMedian, s.eventsPerSecMedian,
                static_cast<unsigned long long>(s.schedQueuePeak));
  }
  return checkFloors(report, floors);
}
