#include "src/scenario/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/scenario/experiment.h"
#include "src/scenario/sweep.h"
#include "src/telemetry/export.h"

namespace manet::scenario {
namespace {

namespace fs = std::filesystem;

ScenarioConfig tinyConfig() {
  ScenarioConfig cfg;
  cfg.numNodes = 10;
  cfg.field = {500, 300};
  cfg.numFlows = 2;
  cfg.duration = sim::Time::seconds(5);
  cfg.telemetry = {};  // ignore MANET_* env for deterministic tests
  return cfg;
}

/// A two-point pause sweep over the tiny scenario.
ExperimentPlan tinyPausePlan(ScenarioConfig base) {
  ExperimentPlan plan("tiny", std::move(base));
  plan.axis(
      "pause_s", {0.0, 2.0},
      [](ScenarioConfig& c, double p) { c.pause = sim::Time::fromSeconds(p); },
      /*labelPrecision=*/0);
  return plan;
}

/// Deterministic fabricated result, distinct per (point, rep) cell; lets
/// runner-mechanics tests skip real simulation runs.
RunResult fakeRun(std::size_t pointIdx, int rep) {
  RunResult r;
  r.metrics.dataOriginated = 100;
  r.metrics.dataDelivered = 10 * (pointIdx + 1) + static_cast<std::uint64_t>(rep);
  r.duration = sim::Time::seconds(5);
  return r;
}

TEST(RunnerTest, ParallelSweepIsByteIdenticalToSerial) {
  const ExperimentPlan plan = tinyPausePlan(tinyConfig());
  RunnerOptions opts;
  opts.replications = 2;
  opts.keepRuns = true;  // aggregateJson embeds per-run entries

  opts.jobs = 1;
  const SweepResult serial = runPlan(plan, opts);
  opts.jobs = 4;
  const SweepResult parallel = runPlan(plan, opts);

  EXPECT_EQ(serial.jobs, 1);
  EXPECT_EQ(parallel.jobs, 4);
  ASSERT_EQ(serial.points.size(), 2u);
  ASSERT_EQ(parallel.points.size(), 2u);
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    EXPECT_EQ(serial.points[p].point.label, parallel.points[p].point.label);
    const std::string a =
        telemetry::aggregateJson(serial.points[p].agg,
                                 serial.points[p].point.config,
                                 serial.points[p].point.label);
    const std::string b =
        telemetry::aggregateJson(parallel.points[p].agg,
                                 parallel.points[p].point.config,
                                 parallel.points[p].point.label);
    EXPECT_EQ(a, b) << "point " << serial.points[p].point.label;
  }
}

TEST(RunnerTest, KeepRunsOffDropsPerRunPayloads) {
  const ExperimentPlan plan = tinyPausePlan(tinyConfig());
  RunnerOptions opts;
  opts.jobs = 2;
  opts.replications = 2;
  opts.runFn = [](const SweepPoint& point, int rep, const ScenarioConfig&) {
    return fakeRun(point.index, rep);
  };
  const SweepResult dropped = runPlan(plan, opts);
  for (const PointResult& p : dropped.points) {
    EXPECT_TRUE(p.agg.runs.empty());
    EXPECT_EQ(p.agg.deliveryFraction.count(), 2u);  // aggregate still full
  }

  opts.keepRuns = true;
  const SweepResult kept = runPlan(plan, opts);
  for (const PointResult& p : kept.points) {
    ASSERT_EQ(p.agg.runs.size(), 2u);
  }
}

TEST(RunnerTest, OnRunObservesPlanOrderTimesSeedOrder) {
  ExperimentPlan plan("order", tinyConfig());
  plan.axis("a", {AxisValue{"a1", {}}, AxisValue{"a2", {}},
                  AxisValue{"a3", {}}});
  RunnerOptions opts;
  opts.jobs = 4;  // completion order is nondeterministic; merge order is not
  opts.replications = 2;
  opts.runFn = [](const SweepPoint& point, int rep, const ScenarioConfig&) {
    return fakeRun(point.index, rep);
  };
  std::vector<std::pair<std::size_t, int>> seen;
  opts.onRun = [&seen](const SweepPoint& point, int rep, const RunResult& r) {
    seen.emplace_back(point.index, rep);
    // The observed result is the cell's own fabricated payload.
    EXPECT_EQ(r.metrics.dataDelivered,
              10 * (point.index + 1) + static_cast<std::uint64_t>(rep));
  };
  runPlan(plan, opts);
  const std::vector<std::pair<std::size_t, int>> want = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}};
  EXPECT_EQ(seen, want);
}

TEST(RunnerTest, ProgressPrintsOneWholeLinePerRun) {
  const ExperimentPlan plan = tinyPausePlan(tinyConfig());
  RunnerOptions opts;
  opts.jobs = 2;  // two workers race to print
  opts.replications = 2;
  opts.progress = true;
  opts.runFn = [](const SweepPoint& point, int rep, const ScenarioConfig&) {
    return fakeRun(point.index, rep);
  };
  testing::internal::CaptureStderr();
  const SweepResult sweep = runPlan(plan, opts);
  const std::string err = testing::internal::GetCapturedStderr();

  std::set<std::string> labels;
  for (const PointResult& p : sweep.points) labels.insert(p.point.label);
  ASSERT_EQ(labels.size(), 2u);
  const std::regex line(R"(  \[([1-4])/4\] (\S+) r([01]): delivery \d\.\d{3}, )"
                        R"(\d+\.\d{2}s wall)");
  std::set<std::string> counters, cells;
  std::istringstream in(err);
  std::string text;
  int lines = 0;
  while (std::getline(in, text)) {
    ++lines;
    std::smatch m;
    ASSERT_TRUE(std::regex_match(text, m, line)) << "torn line: " << text;
    EXPECT_EQ(labels.count(m[2].str()), 1u) << text;
    counters.insert(m[1].str());
    cells.insert(m[2].str() + " r" + m[3].str());
  }
  EXPECT_EQ(lines, 4);
  ASSERT_FALSE(err.empty());
  EXPECT_EQ(err.back(), '\n');  // no trailing partial line
  EXPECT_EQ(counters.size(), 4u);  // k runs 1..4, each once
  EXPECT_EQ(cells.size(), 4u);     // every (point, rep) cell reported once
}

TEST(RunnerTest, EachReplicationGetsItsOwnMobilitySeed) {
  ScenarioConfig base = tinyConfig();
  base.mobilitySeed = 7;
  ExperimentPlan plan("seeds", base);
  RunnerOptions opts;
  opts.jobs = 1;
  opts.replications = 3;
  std::vector<std::uint64_t> seeds(3, 0);
  opts.runFn = [&seeds](const SweepPoint& point, int rep,
                        const ScenarioConfig& cfg) {
    seeds[static_cast<std::size_t>(rep)] = cfg.mobilitySeed;
    return fakeRun(point.index, rep);
  };
  runPlan(plan, opts);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{7, 8, 9}));
}

TEST(RunnerTest, TracePathIsRewrittenPerPointAndRep) {
  // Multi-point sweep: the trace path carries the point label + rep.
  ScenarioConfig base = tinyConfig();
  base.telemetry.traceJsonlPath = "trace.jsonl";
  ExperimentPlan plan("tp", base);
  plan.axis("a", {AxisValue{"a1", {}}, AxisValue{"a2", {}}});
  RunnerOptions opts;
  opts.jobs = 1;
  opts.replications = 2;
  std::vector<std::string> paths;
  opts.runFn = [&paths](const SweepPoint& point, int rep,
                        const ScenarioConfig& cfg) {
    paths.push_back(cfg.telemetry.traceJsonlPath);
    return fakeRun(point.index, rep);
  };
  runPlan(plan, opts);
  EXPECT_EQ(paths, (std::vector<std::string>{
                       "trace.tp_a=a1.r0.jsonl", "trace.tp_a=a1.r1.jsonl",
                       "trace.tp_a=a2.r0.jsonl", "trace.tp_a=a2.r1.jsonl"}));

  // Single point, several reps: the legacy .rN suffix.
  ExperimentPlan solo("solo", base);
  paths.clear();
  runPlan(solo, opts);
  EXPECT_EQ(paths, (std::vector<std::string>{"trace.r0.jsonl",
                                             "trace.r1.jsonl"}));

  // Single point, single rep: the configured path, untouched.
  opts.replications = 1;
  paths.clear();
  runPlan(solo, opts);
  EXPECT_EQ(paths, (std::vector<std::string>{"trace.jsonl"}));
}

TEST(RunnerTest, ConcurrentTraceFilesAreWellFormedJsonl) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "runner_trace_test";
  fs::create_directories(dir);
  ScenarioConfig base = tinyConfig();
  base.telemetry.traceJsonlPath = (dir / "trace.jsonl").string();

  ExperimentPlan plan = tinyPausePlan(base);
  RunnerOptions opts;
  opts.jobs = 4;  // all four (point, rep) cells stream traces concurrently
  opts.replications = 2;
  runPlan(plan, opts);

  for (const std::string& label : {std::string("tiny_pause_s=0"),
                                   std::string("tiny_pause_s=2")}) {
    for (int rep = 0; rep < 2; ++rep) {
      const fs::path file =
          dir / ("trace." + label + ".r" + std::to_string(rep) + ".jsonl");
      ASSERT_TRUE(fs::exists(file)) << file;
      std::ifstream in(file);
      std::string line;
      std::size_t lines = 0;
      while (std::getline(in, line)) {
        ++lines;
        ASSERT_FALSE(line.empty()) << file << ":" << lines;
        // Interleaved writes from another run would corrupt the framing.
        EXPECT_EQ(line.front(), '{') << file << ":" << lines;
        EXPECT_EQ(line.back(), '}') << file << ":" << lines;
      }
      EXPECT_GT(lines, 0u) << file;
    }
  }
  fs::remove_all(dir);
}

TEST(RunnerTest, FirstFailingTaskInTaskOrderIsRethrown) {
  ExperimentPlan plan = tinyPausePlan(tinyConfig());
  RunnerOptions opts;
  opts.jobs = 4;
  opts.replications = 2;
  // Task order: (p0,r0) (p0,r1) (p1,r0) (p1,r1). Two cells fail; the
  // earlier one must win no matter which worker hit it first.
  opts.runFn = [](const SweepPoint& point, int rep, const ScenarioConfig&) {
    if (point.index == 0 && rep == 1) throw std::runtime_error("boom p0 r1");
    if (point.index == 1 && rep == 0) throw std::runtime_error("boom p1 r0");
    return fakeRun(point.index, rep);
  };
  try {
    runPlan(plan, opts);
    FAIL() << "expected runPlan to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom p0 r1");
  }
}

TEST(RunnerTest, RejectsNonPositiveReplications) {
  const ExperimentPlan plan = tinyPausePlan(tinyConfig());
  RunnerOptions opts;
  opts.replications = 0;
  EXPECT_THROW(runPlan(plan, opts), std::invalid_argument);
}

TEST(RunnerTest, SweepResultPointsKeepPlanOrderAndLabels) {
  ExperimentPlan plan = tinyPausePlan(tinyConfig());
  RunnerOptions opts;
  opts.jobs = 1;
  opts.runFn = [](const SweepPoint& point, int rep, const ScenarioConfig&) {
    return fakeRun(point.index, rep);
  };
  const SweepResult result = runPlan(plan, opts);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].point.label, "tiny_pause_s=0");
  EXPECT_EQ(result.points[1].point.label, "tiny_pause_s=2");
  EXPECT_DOUBLE_EQ(result.points[0].agg.deliveryFraction.mean(), 0.10);
  EXPECT_DOUBLE_EQ(result.points[1].agg.deliveryFraction.mean(), 0.20);
}

TEST(RunnerTest, PointTableAndPivotTableFollowPlanOrder) {
  ExperimentPlan plan("grid", tinyConfig());
  plan.axis("a", {AxisValue{"a1", {}}, AxisValue{"a2", {}}})
      .axis("b", {AxisValue{"b1", {}}, AxisValue{"b2", {}}})
      .metric("delivery", [](const AggregateResult& agg) {
        return agg.deliveryFraction.mean();
      });
  RunnerOptions opts;
  opts.jobs = 2;
  opts.runFn = [](const SweepPoint& point, int rep, const ScenarioConfig&) {
    return fakeRun(point.index, rep);
  };
  const SweepResult result = runPlan(plan, opts);

  EXPECT_EQ(pointTable(plan, result).csv(),
            "a,b,delivery\n"
            "a1,b1,0.100\n"
            "a1,b2,0.200\n"
            "a2,b1,0.300\n"
            "a2,b2,0.400\n");
  EXPECT_EQ(pivotTable(plan, result, "delivery").csv(),
            "a,b1,b2\n"
            "a1,0.100,0.200\n"
            "a2,0.300,0.400\n");
  EXPECT_THROW(pivotTable(plan, result, "no_such_metric"),
               std::invalid_argument);

  ExperimentPlan oneAxis("one", tinyConfig());
  oneAxis.axis("a", {AxisValue{"a1", {}}})
      .metric("delivery", [](const AggregateResult& agg) {
        return agg.deliveryFraction.mean();
      });
  const SweepResult oneResult = runPlan(oneAxis, opts);
  EXPECT_THROW(pivotTable(oneAxis, oneResult, "delivery"),
               std::invalid_argument);
}

TEST(ResolveJobsTest, ExplicitRequestWins) {
  const char* old = std::getenv("MANET_JOBS");
  setenv("MANET_JOBS", "3", 1);
  EXPECT_EQ(resolveJobs(5), 5);
  EXPECT_EQ(resolveJobs(1), 1);
  if (old != nullptr) {
    setenv("MANET_JOBS", old, 1);
  } else {
    unsetenv("MANET_JOBS");
  }
}

TEST(ResolveJobsTest, EnvironmentFallback) {
  const char* old = std::getenv("MANET_JOBS");
  setenv("MANET_JOBS", "3", 1);
  EXPECT_EQ(resolveJobs(0), 3);
  EXPECT_EQ(resolveJobs(-1), 3);
  setenv("MANET_JOBS", "garbage", 1);
  EXPECT_GE(resolveJobs(0), 1);  // unparseable -> hardware concurrency
  unsetenv("MANET_JOBS");
  EXPECT_GE(resolveJobs(0), 1);
  if (old != nullptr) setenv("MANET_JOBS", old, 1);
}

TEST(RunnerTest, RunReplicatedRejectsExportWithoutLabel) {
  ScenarioConfig cfg = tinyConfig();
  cfg.telemetry.exportDir = ::testing::TempDir();
  EXPECT_THROW(runReplicated(cfg, 1), std::invalid_argument);
}

TEST(RunnerTest, RunReplicatedExportsUnderItsLabel) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "runner_export_test";
  fs::create_directories(dir);
  ScenarioConfig cfg = tinyConfig();
  cfg.telemetry.exportDir = dir.string();
  const AggregateResult agg = runReplicated(cfg, 1, {}, "smoke");
  EXPECT_EQ(agg.deliveryFraction.count(), 1u);
  EXPECT_TRUE(fs::exists(dir / "smoke.json"));
  fs::remove_all(dir);
}

TEST(RunnerTest, FailsFastOnUnwritableExportDirBeforeRunningCells) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "runner_failfast_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // A regular file where the export dir should go: probing must throw
  // before a single (multi-minute, in real campaigns) cell executes.
  { std::ofstream(dir / "blocker") << "x"; }

  ScenarioConfig base = tinyConfig();
  base.telemetry.exportDir = (dir / "blocker" / "exports").string();
  const ExperimentPlan plan = tinyPausePlan(base);
  std::atomic<int> cellsRun{0};
  RunnerOptions opts;
  opts.runFn = [&cellsRun](const SweepPoint& point, int rep,
                           const ScenarioConfig&) {
    ++cellsRun;
    return fakeRun(point.index, rep);
  };
  EXPECT_THROW(runPlan(plan, opts), std::invalid_argument);
  EXPECT_EQ(cellsRun.load(), 0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace manet::scenario
