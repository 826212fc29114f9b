#include "src/telemetry/telemetry_config.h"

#include <cctype>
#include <cstdlib>
#include <string_view>

namespace manet::telemetry {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

util::LogLevel parseLogLevel(const char* s, util::LogLevel fallback) {
  if (s == nullptr) return fallback;
  const std::string_view v(s);
  if (iequals(v, "none") || v == "0") return util::LogLevel::kNone;
  if (iequals(v, "error") || v == "1") return util::LogLevel::kError;
  if (iequals(v, "info") || v == "2") return util::LogLevel::kInfo;
  if (iequals(v, "debug") || v == "3") return util::LogLevel::kDebug;
  if (iequals(v, "trace") || v == "4") return util::LogLevel::kTrace;
  return fallback;
}

TelemetryConfig TelemetryConfig::fromEnv() { return fromEnv(TelemetryConfig{}); }

TelemetryConfig TelemetryConfig::fromEnv(TelemetryConfig base) {
  if (const char* v = std::getenv("MANET_TRACE_JSONL");  // NOLINT(concurrency-mt-unsafe)
      v != nullptr && v[0] != '\0') {
    base.traceJsonlPath = v;
  }
  if (const char* v = std::getenv("MANET_TRACE_RING");  // NOLINT(concurrency-mt-unsafe)
      v != nullptr && v[0] != '\0') {
    const long n = std::strtol(v, nullptr, 10);
    base.ringCapacity = n > 0 ? static_cast<std::size_t>(n) : 0;
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
  if (const char* v = std::getenv("MANET_LOG_LEVEL"); v != nullptr) {  // NOLINT(concurrency-mt-unsafe)
    base.logLevel = parseLogLevel(v, base.logLevel);
  }
  if (const char* v = std::getenv("MANET_TRACE_LOGS"); v != nullptr) {  // NOLINT(concurrency-mt-unsafe)
    base.captureLogs = v[0] == '1';
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
