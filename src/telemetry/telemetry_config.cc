#include "src/telemetry/telemetry_config.h"

#include <cstdlib>
#include <string_view>

namespace manet::telemetry {

TelemetryConfig TelemetryConfig::fromEnv() { return fromEnv(TelemetryConfig{}); }

TelemetryConfig TelemetryConfig::fromEnv(TelemetryConfig base) {
  if (const char* v = std::getenv("MANET_TRACE_JSONL");  // NOLINT(concurrency-mt-unsafe)
      v != nullptr && v[0] != '\0') {
    base.traceJsonlPath = v;
  }
  if (const char* v = std::getenv("MANET_SAMPLE_PERIOD");  // NOLINT(concurrency-mt-unsafe)
      v != nullptr && v[0] != '\0') {
    char* end = nullptr;
    const double secs = std::strtod(v, &end);
    // The period must be finite and fit Time's int64 nanoseconds (NaN
    // fails every comparison).
    if (end != v && secs > 0.0 && secs * 1e9 < 0x1p63) {
      base.samplePeriod = sim::Time::fromSeconds(secs);
    } else if (end != v && secs == 0.0) {
      base.samplePeriod = sim::Time::zero();
    }
    // Unparsable or out-of-range values leave the base setting.
  }
  if (const char* v = std::getenv("MANET_EXPORT_DIR");  // NOLINT(concurrency-mt-unsafe)
      v != nullptr && v[0] != '\0') {
    base.exportDir = v;
  }
  return base;
}

namespace {

/// Insert `suffix` before the path's extension (or append when the basename
/// has none; a dot inside a directory component is not an extension).
std::string insertBeforeExtension(const std::string& path,
                                  const std::string& suffix) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || dot == 0 ||
      path.find('/', dot) != std::string::npos) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

}  // namespace

std::string perRunPath(const std::string& path, int run) {
  return insertBeforeExtension(path, ".r" + std::to_string(run));
}

std::string perRunPath(const std::string& path, std::string_view pointLabel,
                       int run) {
  std::string suffix = ".";
  suffix += pointLabel;
  suffix += ".r" + std::to_string(run);
  return insertBeforeExtension(path, suffix);
}

}  // namespace manet::telemetry
