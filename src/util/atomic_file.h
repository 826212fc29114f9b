// Crash-safe file writes: write-temp-then-rename, with an fsync before the
// rename so a power cut or SIGKILL can never leave a torn or truncated
// artifact under the final name. Every structured export in the repo
// (aggregate JSON, series and table CSVs) goes through this helper; readers
// therefore only ever see a file that is either absent or complete.
#pragma once

#include <string>
#include <string_view>

namespace manet::util {

/// Write `content` to `path` atomically: the bytes land in a unique
/// temporary sibling (`<path>.tmp.<pid>`), are flushed and fsynced, and the
/// temporary is then renamed over `path` (rename(2) is atomic within a
/// filesystem). Parent directories are created as needed. Returns false and
/// logs to stderr on failure; a failed attempt removes its temporary.
bool atomicWriteFile(const std::string& path, std::string_view content);

/// Create `path`'s parent directories if they do not exist yet, so writers
/// opened at sim start (before any exporter runs) can write into a not-yet
/// created export directory. Thread-safe; best-effort (open errors are
/// still reported by the caller).
void ensureParentDir(const std::string& path);

}  // namespace manet::util
