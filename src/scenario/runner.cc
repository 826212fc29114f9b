#include "src/scenario/runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/telemetry/export.h"
#include "src/telemetry/telemetry_config.h"
#include "src/util/atomic_file.h"
#include "src/util/logging.h"
#include "src/util/mutex.h"

namespace manet::scenario {

namespace {

ScenarioConfig taskConfig(const SweepPoint& point, int rep, int replications,
                          std::size_t numPoints) {
  ScenarioConfig cfg = point.config;
  cfg.mobilitySeed =
      point.config.mobilitySeed + static_cast<std::uint64_t>(rep);
  // Concurrent runs must never share a trace file: tag the path with the
  // point label (multi-point sweeps) and replication index. A single
  // (point, seed) run keeps the configured path untouched.
  const auto tagPath = [&](std::string& path) {
    if (path.empty()) return;
    if (numPoints > 1) {
      path = telemetry::perRunPath(path, point.label, rep);
    } else if (replications > 1) {
      path = telemetry::perRunPath(path, rep);
    }
  };
  tagPath(cfg.telemetry.traceJsonlPath);
  tagPath(cfg.telemetry.perfettoPath);
  return cfg;
}

void addToAggregate(AggregateResult& agg, const RunResult& r) {
  const metrics::Metrics& m = r.metrics;
  agg.deliveryFraction.add(m.packetDeliveryFraction());
  agg.avgDelaySec.add(m.avgDelaySec());
  agg.normalizedOverhead.add(m.normalizedOverhead());
  agg.throughputKbps.add(m.throughputKbps(r.duration));
  agg.goodReplyPct.add(m.goodReplyPct());
  agg.invalidCacheHitPct.add(m.invalidCacheHitPct());
  agg.cacheHits.add(static_cast<double>(m.cacheHits));
  agg.linkBreaks.add(static_cast<double>(m.linkBreaksDetected));
  for (std::size_t i = 0; i < net::kNumRouteOrigins; ++i) {
    agg.invalidHitsByOrigin[i].add(
        static_cast<double>(m.invalidCacheHitsByOrigin[i]));
  }
}

// Fail fast, before any cell runs: a campaign that only discovers an
// unwritable export directory when its first point finishes has wasted
// every cell up to that moment.
void probeWritableDir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir)) {
    throw std::invalid_argument(
        "export dir '" + dir + "' is not a creatable directory" +
        (ec ? " (" + ec.message() + ")" : "") +
        "; fix the path or permissions before launching the campaign");
  }
  const std::string probe = dir + "/.manet_write_probe";
  if (!util::atomicWriteFile(probe, "probe\n")) {
    throw std::invalid_argument("export dir '" + dir +
                                "' is not writable; fix permissions before "
                                "launching the campaign");
  }
  fs::remove(probe, ec);
}

}  // namespace

const AggregateResult& SweepResult::at(std::string_view label) const {
  for (const PointResult& p : points) {
    if (p.point.label == label) return p.agg;
  }
  throw std::out_of_range("sweep result has no point labelled '" +
                          std::string(label) + "'");
}

int resolveJobs(int jobs) {
  if (jobs >= 1) return jobs;
  if (const char* v = std::getenv("MANET_JOBS"); v != nullptr && v[0] != '\0') {  // NOLINT(concurrency-mt-unsafe)
    const long n = std::strtol(v, nullptr, 10);
    if (n >= 1) return static_cast<int>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

SweepResult runPlan(const ExperimentPlan& plan, RunnerOptions opts) {
  if (opts.replications < 1) {
    throw std::invalid_argument("experiment plan '" + plan.name() +
                                "': replications must be >= 1, got " +
                                std::to_string(opts.replications));
  }
  const std::vector<SweepPoint> points = plan.points();  // validates
  const int reps = opts.replications;
  const std::size_t numTasks = points.size() * static_cast<std::size_t>(reps);
  const int jobs = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(resolveJobs(opts.jobs)),
                            numTasks));

  // Fail fast on unwritable artifact destinations before any cell runs.
  {
    std::set<std::string> dirs;
    for (const SweepPoint& p : points) {
      if (!p.config.telemetry.exportDir.empty()) {
        dirs.insert(p.config.telemetry.exportDir);
      }
    }
    for (const std::string& d : dirs) probeWritableDir(d);
  }

  // Preallocated result grid: workers write disjoint slots, so the only
  // shared mutable state is the task cursor.
  std::vector<std::vector<RunResult>> results(points.size());
  std::vector<std::vector<std::exception_ptr>> errors(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    results[p].resize(static_cast<std::size_t>(reps));
    errors[p].resize(static_cast<std::size_t>(reps));
  }

  std::atomic<std::size_t> nextTask{0};
  std::atomic<std::size_t> doneTasks{0};

  const auto runTask = [&](std::size_t taskIdx) {
    const std::size_t pointIdx = taskIdx / static_cast<std::size_t>(reps);
    const int rep = static_cast<int>(taskIdx % static_cast<std::size_t>(reps));
    const SweepPoint& point = points[pointIdx];
    const ScenarioConfig cfg = taskConfig(point, rep, reps, points.size());
    RunResult r;
    try {
      r = opts.runFn ? opts.runFn(point, rep, cfg) : runScenario(cfg);
    } catch (...) {
      errors[pointIdx][static_cast<std::size_t>(rep)] =
          std::current_exception();
      return;
    }
    if (opts.progress) {
      const std::size_t done =
          doneTasks.fetch_add(1, std::memory_order_relaxed) + 1;
      const util::MutexLock lock(util::stderrMutex());
      std::fprintf(stderr, "  [%zu/%zu] %s r%d: delivery %.3f, %.2fs wall\n",
                   done, numTasks, point.label.c_str(), rep,
                   r.metrics.packetDeliveryFraction(), r.wallSeconds);
    }
    results[pointIdx][static_cast<std::size_t>(rep)] = std::move(r);
  };

  // Audited wall-clock read: brackets the whole sweep for throughput
  // reporting only (SweepResult::wallSeconds, a volatile field excluded
  // from deterministic exports); no simulation decision reads it.
  // manet-lint: allow(wall-clock): sweep timing for reports only
  const auto wallStart = std::chrono::steady_clock::now();
  if (jobs <= 1) {
    // Serial path: run in the calling thread, no pool — behaviourally the
    // legacy runReplicated loop (sinks and all).
    for (std::size_t t = 0; t < numTasks; ++t) runTask(t);
  } else {
    // Work-stealing pool: idle workers pull the next unclaimed task from
    // the shared cursor, so long cells (e.g. pause-0 high-mobility runs)
    // never leave a fixed shard of short ones idle.
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      workers.emplace_back([&] {
        for (;;) {
          const std::size_t t =
              nextTask.fetch_add(1, std::memory_order_relaxed);
          if (t >= numTasks) return;
          runTask(t);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  // manet-lint: allow(wall-clock): sweep timing for reports only
  const auto wallEnd = std::chrono::steady_clock::now();

  // Failures surface deterministically: first failing cell in task order,
  // regardless of which worker hit it first.
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (const std::exception_ptr& e : errors[p]) {
      if (e) std::rethrow_exception(e);
    }
  }

  // Deterministic merge: plan order, then seed order. Aggregation, onRun
  // observation and export all happen here, serially, so every artifact is
  // byte-identical no matter how the pool interleaved the runs.
  SweepResult out;
  out.jobs = jobs;
  out.replications = reps;
  out.wallSeconds =
      std::chrono::duration<double>(wallEnd - wallStart).count();
  out.points.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    PointResult pr;
    pr.point = points[p];
    for (int rep = 0; rep < reps; ++rep) {
      RunResult& r = results[p][static_cast<std::size_t>(rep)];
      addToAggregate(pr.agg, r);
      if (opts.onRun) opts.onRun(pr.point, rep, r);
      pr.agg.runs.push_back(std::move(r));
    }
    if (!pr.point.config.telemetry.exportDir.empty()) {
      telemetry::exportAggregate(pr.agg, pr.point.config, pr.point.label);
    }
    if (!opts.keepRuns) {
      // The aggregate and exports are complete; drop the per-run payloads
      // (sampled series, profiles) so big grids stay flat in memory.
      pr.agg.runs.clear();
      pr.agg.runs.shrink_to_fit();
    }
    out.points.push_back(std::move(pr));
  }
  return out;
}

Table pointTable(const ExperimentPlan& plan, const SweepResult& result) {
  std::vector<std::string> header;
  for (const Axis& a : plan.axes()) header.push_back(a.name);
  for (const MetricColumn& m : plan.metrics()) header.push_back(m.name);
  Table table(header);
  for (const PointResult& p : result.points) {
    std::vector<std::string> row = p.point.coordinates;
    for (const MetricColumn& m : plan.metrics()) {
      row.push_back(Table::num(m.fn(p.agg), m.precision));
    }
    table.addRow(row);
  }
  return table;
}

Table pivotTable(const ExperimentPlan& plan, const SweepResult& result,
                 const std::string& metricName,
                 const std::string& rowHeader) {
  if (plan.axes().size() != 2) {
    throw std::invalid_argument("pivotTable needs exactly 2 axes, plan '" +
                                plan.name() + "' has " +
                                std::to_string(plan.axes().size()));
  }
  const MetricColumn* metric = nullptr;
  for (const MetricColumn& m : plan.metrics()) {
    if (m.name == metricName) metric = &m;
  }
  if (metric == nullptr) {
    throw std::invalid_argument("plan '" + plan.name() +
                                "' has no metric named '" + metricName + "'");
  }
  const Axis& rows = plan.axes()[0];
  const Axis& cols = plan.axes()[1];
  std::vector<std::string> header;
  header.push_back(rowHeader.empty() ? rows.name : rowHeader);
  for (const AxisValue& c : cols.values) header.push_back(c.label);
  Table table(header);
  // points() is row-major (first axis slowest), so the grid is contiguous.
  for (std::size_t r = 0; r < rows.values.size(); ++r) {
    std::vector<std::string> row{rows.values[r].label};
    for (std::size_t c = 0; c < cols.values.size(); ++c) {
      const PointResult& p =
          result.points[r * cols.values.size() + c];
      row.push_back(Table::num(metric->fn(p.agg), metric->precision));
    }
    table.addRow(row);
  }
  return table;
}

}  // namespace manet::scenario
