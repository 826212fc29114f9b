#include "src/util/logging.h"

#include <atomic>
#include <cstdio>
#include <utility>

namespace manet::util {
namespace {
// manet-lint: allow(shared-mutable): the verbosity level is a deliberate
// process-wide sink — every run under one invocation shares one level, it
// never feeds back into simulation decisions, and the atomic makes the
// cross-thread reads race-free.
std::atomic<LogLevel> g_level{LogLevel::kNone};
// manet-lint: allow(shared-mutable): thread-local by design — the parallel
// runner executes each run wholly on one worker thread, and a per-thread
// sink guarantees a run's captured log lines can never cross-wire into a
// concurrent run's trace.
thread_local LogSinkFn t_sink;
}  // namespace

LogLevel logLevel() { return g_level.load(std::memory_order_relaxed); }
void setLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

Mutex& stderrMutex() {
  // manet-lint: allow(shared-mutable): stderr serialization only; guards
  // writes to a shared fd and is never read by simulation code.
  static Mutex m;
  return m;
}

void setLogSink(LogSinkFn sink) { t_sink = std::move(sink); }

void logLine(LogLevel level, std::string_view msg) {
  if (t_sink) {
    t_sink(level, msg);
    return;
  }
  static constexpr const char* kNames[] = {"", "E", "I", "D", "T"};
  const MutexLock lock(stderrMutex());
  std::fprintf(stderr, "[%s] %.*s\n", kNames[static_cast<int>(level)],
               static_cast<int>(msg.size()), msg.data());
}

}  // namespace manet::util
