// Minimal leveled logging for simulator tracing.
//
// Logging is off by default (benches run millions of events); tests and
// examples can raise the level to trace protocol behaviour. printf-style
// formatting (libstdc++ 12 has no <format>); messages of any length are
// formatted exactly (a second heap-allocating pass handles lines that
// exceed the stack buffer).
//
// Output goes to stderr unless a LogSink is installed; the telemetry layer
// installs one so log lines become trace records and both share a single
// verbosity config (ScenarioConfig.telemetry.logLevel / MANET_LOG_LEVEL).
//
// Thread model (the parallel sweep runner executes whole runs on worker
// threads): the level is a process-wide atomic, the sink is thread-local —
// each run installs its capture sink on the thread it runs on, so parallel
// runs can never cross-wire log lines into each other's traces — and the
// default stderr writer serializes lines through stderrMutex(), which the
// runner's progress lines share.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "src/util/mutex.h"

namespace manet::util {

enum class LogLevel { kNone = 0, kError, kInfo, kDebug, kTrace };

LogLevel logLevel();
void setLogLevel(LogLevel level);

/// Process-wide mutex serializing raw stderr lines (log fallback writer,
/// runner progress), so concurrent runs never interleave
/// partial lines. Hold it as `const util::MutexLock lock(stderrMutex());`
/// around the fprintf calls that emit one logical line.
Mutex& stderrMutex();

/// Redirect formatted log lines (e.g. into a telemetry TraceSink). Pass an
/// empty function to restore the default stderr writer. Thread-local: the
/// sink applies only to log calls made on the installing thread.
using LogSinkFn = std::function<void(LogLevel, std::string_view)>;
void setLogSink(LogSinkFn sink);

void logLine(LogLevel level, std::string_view msg);

template <typename... Args>
void log(LogLevel level, const char* fmt, Args... args) {
  if (level > logLevel()) return;
  if constexpr (sizeof...(Args) == 0) {
    logLine(level, fmt);
  } else {
    char buf[512];
    const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
    if (n < 0) return;
    if (static_cast<std::size_t>(n) < sizeof(buf)) {
      logLine(level, std::string_view(buf, static_cast<std::size_t>(n)));
    } else {
      std::string big(static_cast<std::size_t>(n) + 1, '\0');
      std::snprintf(big.data(), big.size(), fmt, args...);
      big.resize(static_cast<std::size_t>(n));
      logLine(level, big);
    }
  }
}

#define MANET_TRACE(...) \
  ::manet::util::log(::manet::util::LogLevel::kTrace, __VA_ARGS__)
#define MANET_DEBUG(...) \
  ::manet::util::log(::manet::util::LogLevel::kDebug, __VA_ARGS__)
#define MANET_INFO(...) \
  ::manet::util::log(::manet::util::LogLevel::kInfo, __VA_ARGS__)

}  // namespace manet::util
