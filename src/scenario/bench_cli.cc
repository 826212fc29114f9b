#include "src/scenario/bench_cli.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace manet::scenario {

namespace {

[[noreturn]] void usage(const std::string& benchName, int exitCode) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --jobs N            worker threads (0 = MANET_JOBS or hardware "
      "concurrency)\n"
      "  --scale TIER        tiny | quick | full (default quick)\n"
      "  --seeds N           replications per sweep point (default: tier's "
      "count)\n"
      "  --filter AXIS=VALUE keep one value of a plan axis (repeatable)\n"
      "  --export-dir DIR    write structured exports under DIR\n"
      "  --progress          per-run progress lines on stderr\n"
      "  --help              this text\n"
      "Output artifacts are byte-identical for every --jobs value.\n",
      benchName.c_str());
  std::exit(exitCode);
}

[[noreturn]] void die(const std::string& benchName, const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", benchName.c_str(), msg.c_str());
  usage(benchName, 2);
}

/// Value of a `--flag VALUE` pair; advances `i` past the value.
const char* flagValue(int argc, char** argv, int& i,
                      const std::string& benchName) {
  if (i + 1 >= argc) {
    die(benchName, std::string(argv[i]) + " needs a value");
  }
  return argv[++i];
}

int parseInt(std::string_view flag, const char* s,
             const std::string& benchName) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') {
    die(benchName, std::string(flag) + " expects an integer, got '" +
                       std::string(s) + "'");
  }
  return static_cast<int>(v);
}

}  // namespace

BenchCli::BenchCli(int argc, char** argv, std::string benchName)
    : benchName_(std::move(benchName)), scale_(benchScaleNamed("quick")) {
  bool seedsSet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(benchName_, 0);
    } else if (arg == "--jobs") {
      jobs_ = parseInt(arg, flagValue(argc, argv, i, benchName_), benchName_);
      if (jobs_ < 0) die(benchName_, "--jobs must be >= 0");
    } else if (arg == "--scale") {
      const char* tier = flagValue(argc, argv, i, benchName_);
      try {
        scale_ = benchScaleNamed(tier);
      } catch (const std::invalid_argument& e) {
        die(benchName_, e.what());
      }
    } else if (arg == "--seeds") {
      replications_ =
          parseInt(arg, flagValue(argc, argv, i, benchName_), benchName_);
      if (replications_ < 1) die(benchName_, "--seeds must be >= 1");
      seedsSet = true;
    } else if (arg == "--filter") {
      const std::string spec = flagValue(argc, argv, i, benchName_);
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        die(benchName_, "--filter expects AXIS=VALUE, got '" + spec + "'");
      }
      filters_.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--export-dir") {
      // The telemetry config and Table's CSV mirror both read
      // MANET_EXPORT_DIR from the environment; setting it here (before the
      // bench builds any ScenarioConfig) routes every artifact at once.
      setenv("MANET_EXPORT_DIR", flagValue(argc, argv, i, benchName_), 1);
    } else if (arg == "--progress") {
      progress_ = true;
    } else {
      die(benchName_, "unknown flag '" + std::string(arg) + "'");
    }
  }
  if (!seedsSet) replications_ = scale_.replications;
  filterUsed_.assign(filters_.size(), false);
}

RunnerOptions BenchCli::runnerOptions() const {
  RunnerOptions opts;
  opts.jobs = jobs_;
  opts.replications = replications_;
  opts.progress = progress_;
  return opts;
}

ExperimentPlan& BenchCli::applyFilters(ExperimentPlan& plan) const {
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    try {
      plan.filter(filters_[i].first, filters_[i].second);
      filterUsed_[i] = true;
    } catch (const std::invalid_argument& e) {
      die(benchName_, e.what());
    }
  }
  return plan;
}

ExperimentPlan& BenchCli::applyMatchingFilters(ExperimentPlan& plan) const {
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    bool hasAxis = false;
    for (const Axis& a : plan.axes()) {
      if (a.name == filters_[i].first) hasAxis = true;
    }
    if (!hasAxis) continue;
    try {
      plan.filter(filters_[i].first, filters_[i].second);
      filterUsed_[i] = true;
    } catch (const std::invalid_argument& e) {
      die(benchName_, e.what());
    }
  }
  return plan;
}

void BenchCli::checkFiltersConsumed() const {
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    if (!filterUsed_[i]) {
      die(benchName_, "--filter " + filters_[i].first + "=" +
                          filters_[i].second +
                          " names an axis no plan in this bench has");
    }
  }
}

}  // namespace manet::scenario
