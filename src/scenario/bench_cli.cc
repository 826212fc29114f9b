#include "src/scenario/bench_cli.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace manet::scenario {

namespace {

/// One command line's argv walk. --help prints the usage on stdout and
/// exits 0; a malformed flag prints `name: message` and the usage on
/// stderr and exits 2.
class ArgWalk {
 public:
  ArgWalk(int argc, char** argv, const std::string& name, std::string usage)
      : argc_(argc), argv_(argv), name_(name), usage_(std::move(usage)) {}

  /// The next flag, or nullptr after the last one.
  const char* next() {
    if (++i_ >= argc_) return nullptr;
    const std::string_view arg = argv_[i_];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage_.c_str(), stdout);
      std::exit(0);
    }
    return argv_[i_];
  }

  /// The value of the current `--flag VALUE` pair.
  const char* value() {
    if (i_ + 1 >= argc_) fail(std::string(argv_[i_]) + " needs a value");
    return argv_[++i_];
  }

  /// The current flag's value as an integer in [lo, hi].
  long long parseInt(long long lo, long long hi) {
    const std::string flag = argv_[i_];
    const char* s = value();
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
      fail(flag + " expects an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "], got '" + s + "'");
    }
    return v;
  }

  /// `s` (the current flag's value, or part of it) as a finite number.
  double parseDouble(const std::string& s) const {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !std::isfinite(v)) {
      fail(std::string(argv_[i_ - 1]) + " expects a number, got '" + s +
           "'");
    }
    return v;
  }
  double parseDouble() { return parseDouble(value()); }

  [[noreturn]] void fail(const std::string& msg) const {
    std::fprintf(stderr, "%s: %s\n%s", name_.c_str(), msg.c_str(),
                 usage_.c_str());
    std::exit(2);
  }

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
  const std::string& name_;
  std::string usage_;
};

std::string benchUsage(const std::string& name) {
  return "usage: " + name +
         " [options]\n"
         "  --jobs N            worker threads (0 = MANET_JOBS or hardware "
         "concurrency)\n"
         "  --scale TIER        tiny | quick | full (default quick)\n"
         "  --seeds N           replications per sweep point (default: "
         "tier's count)\n"
         "  --filter AXIS=VALUE keep one value of a plan axis (repeatable)\n"
         "  --export-dir DIR    write structured exports under DIR\n"
         "  --progress          per-run progress lines on stderr\n"
         "  --help              this text\n"
         "Output artifacts are byte-identical for every --jobs value.\n";
}

struct VariantName {
  const char* name;
  core::Variant variant;
};
constexpr VariantName kVariantNames[] = {
    {"base", core::Variant::kBase},
    {"wide", core::Variant::kWiderError},
    {"static", core::Variant::kStaticExpiry},
    {"adaptive", core::Variant::kAdaptiveExpiry},
    {"neg", core::Variant::kNegCache},
    {"all", core::Variant::kAll},
};

/// Run's usage text; every default comes from a default-built RunArgs.
std::string runUsage(const std::string& name, const RunArgs& defaults) {
  const ScenarioConfig& c = defaults.config;
  const char* variant = "?";
  for (const VariantName& v : kVariantNames) {
    if (v.variant == defaults.variant) variant = v.name;
  }
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "usage: %s [options]\n"
      "  --nodes N        number of nodes              (default %d)\n"
      "  --field WxH      field size in meters         (default %gx%g)\n"
      "  --flows N        CBR flows                    (default %d)\n"
      "  --rate R         packets/s per flow           (default %g)\n"
      "  --payload B      payload bytes                (default %u)\n"
      "  --pause S        waypoint pause time, seconds (default %g)\n"
      "  --speed V        max speed m/s                (default %g)\n"
      "  --duration S     simulated seconds            (default %g)\n"
      "  --seeds N        replications                 (default %d)\n"
      "  --seed S         base mobility seed           (default %llu)\n"
      "  --variant V      base|wide|static|adaptive|neg|all (default %s)\n"
      "  --timeout T      static expiry timeout, seconds    (default %g)\n"
      "  --cache C        path|link cache structure    (default %s)\n"
      "  --capacity N     route cache capacity         (default %zu)\n"
      "  --freshness      enable freshness tagging extension\n"
      "  --csv FILE       also write a CSV row per seed\n",
      name.c_str(), c.numNodes, c.field.x, c.field.y, c.numFlows,
      c.packetsPerSecond, c.payloadBytes, c.pause.toSeconds(), c.maxSpeed,
      c.duration.toSeconds(), defaults.seeds,
      static_cast<unsigned long long>(c.mobilitySeed), variant,
      c.dsr.staticTimeout.toSeconds(), core::toString(c.dsr.cacheStructure),
      c.dsr.routeCacheCapacity);
  return buf;
}

}  // namespace

BenchCli::BenchCli(int argc, char** argv, std::string benchName)
    : benchName_(std::move(benchName)), scale_(benchScaleNamed("quick")) {
  ArgWalk args(argc, argv, benchName_, benchUsage(benchName_));
  int seeds = 0;  // 0 = the tier's count
  while (const char* flag = args.next()) {
    const std::string_view arg = flag;
    if (arg == "--jobs") {
      jobs_ = static_cast<int>(args.parseInt(0, INT_MAX));
    } else if (arg == "--scale") {
      const char* tier = args.value();
      try {
        scale_ = benchScaleNamed(tier);
      } catch (const std::invalid_argument& e) {
        args.fail(e.what());
      }
    } else if (arg == "--seeds") {
      seeds = static_cast<int>(args.parseInt(1, INT_MAX));
    } else if (arg == "--filter") {
      const std::string spec = args.value();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        args.fail("--filter expects AXIS=VALUE, got '" + spec + "'");
      }
      filters_.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--export-dir") {
      // The telemetry config and Table's CSV mirror both read
      // MANET_EXPORT_DIR from the environment; setting it here (before the
      // bench builds any ScenarioConfig) routes every artifact at once.
      setenv("MANET_EXPORT_DIR", args.value(), 1);
    } else if (arg == "--progress") {
      progress_ = true;
    } else {
      args.fail("unknown flag '" + std::string(arg) + "'");
    }
  }
  if (seeds > 0) scale_.replications = seeds;
  filterUsed_.assign(filters_.size(), false);
}

RunnerOptions BenchCli::runnerOptions() const {
  RunnerOptions opts;
  opts.jobs = jobs_;
  opts.replications = scale_.replications;
  opts.progress = progress_;
  return opts;
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
      std::fprintf(stderr, "%s: %s\n", benchName_.c_str(), e.what());
      std::exit(2);
    }
  }
  return plan;
}

void BenchCli::checkFiltersConsumed() const {
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    if (!filterUsed_[i]) {
      std::fprintf(stderr, "%s: --filter %s=%s names an axis no plan in this "
                   "bench has\n",
                   benchName_.c_str(), filters_[i].first.c_str(),
                   filters_[i].second.c_str());
      std::exit(2);
    }
  }
}

RunArgs parseRunArgs(int argc, char** argv, const std::string& name) {
  RunArgs out;
  ScenarioConfig& cfg = out.config;
  ArgWalk args(argc, argv, name, runUsage(name, out));
  while (const char* flag = args.next()) {
    const std::string_view a = flag;
    if (a == "--nodes") {
      cfg.numNodes = static_cast<int>(args.parseInt(0, INT_MAX));
    } else if (a == "--field") {
      const std::string v = args.value();
      const std::size_t x = v.find('x');
      if (x == std::string::npos) {
        args.fail("--field expects WxH, got '" + v + "'");
      }
      cfg.field = {args.parseDouble(v.substr(0, x)),
                   args.parseDouble(v.substr(x + 1))};
      if (cfg.field.x <= 0 || cfg.field.y <= 0) {
        args.fail("--field sides must be > 0, got '" + v + "'");
      }
    } else if (a == "--flows") {
      cfg.numFlows = static_cast<int>(args.parseInt(0, INT_MAX));
    } else if (a == "--rate") {
      cfg.packetsPerSecond = args.parseDouble();
    } else if (a == "--payload") {
      cfg.payloadBytes =
          static_cast<std::uint32_t>(args.parseInt(0, UINT32_MAX));
    } else if (a == "--pause") {
      cfg.pause = sim::Time::fromSeconds(args.parseDouble());
    } else if (a == "--speed") {
      cfg.maxSpeed = args.parseDouble();
    } else if (a == "--duration") {
      cfg.duration = sim::Time::fromSeconds(args.parseDouble());
    } else if (a == "--seeds") {
      out.seeds = static_cast<int>(args.parseInt(0, INT_MAX));
    } else if (a == "--seed") {
      cfg.mobilitySeed =
          static_cast<std::uint64_t>(args.parseInt(0, LLONG_MAX));
    } else if (a == "--variant") {
      const std::string_view v = args.value();
      bool known = false;
      for (const VariantName& n : kVariantNames) {
        if (v == n.name) {
          out.variant = n.variant;
          known = true;
        }
      }
      if (!known) args.fail("unknown variant '" + std::string(v) + "'");
    } else if (a == "--timeout") {
      cfg.dsr.staticTimeout = sim::Time::fromSeconds(args.parseDouble());
    } else if (a == "--cache") {
      const std::string_view v = args.value();
      if (v == "path") {
        cfg.dsr.cacheStructure = core::CacheStructure::kPath;
      } else if (v == "link") {
        cfg.dsr.cacheStructure = core::CacheStructure::kLink;
      } else {
        args.fail("unknown cache '" + std::string(v) + "'");
      }
    } else if (a == "--capacity") {
      cfg.dsr.routeCacheCapacity =
          static_cast<std::size_t>(args.parseInt(0, LLONG_MAX));
    } else if (a == "--freshness") {
      cfg.dsr.freshnessTagging = true;
    } else if (a == "--csv") {
      out.csvPath = args.value();
    } else {
      args.fail("unknown flag '" + std::string(a) + "'");
    }
  }
  // The variant sets the technique switches; the cache flags stay.
  const core::DsrConfig knobs = cfg.dsr;
  cfg.dsr = core::makeVariantConfig(out.variant, knobs.staticTimeout);
  cfg.dsr.cacheStructure = knobs.cacheStructure;
  cfg.dsr.routeCacheCapacity = knobs.routeCacheCapacity;
  cfg.dsr.freshnessTagging = knobs.freshnessTagging;
  return out;
}

}  // namespace manet::scenario
