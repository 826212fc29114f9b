#include "src/util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>

namespace manet::util {

void ensureParentDir(const std::string& path) {
  const std::filesystem::path p(path);
  if (!p.has_parent_path()) return;
  // Parallel sweep workers open sinks and write artifacts concurrently;
  // serialize directory creation so racing mkdir calls cannot spuriously
  // fail.
  // manet-lint: allow(shared-mutable): process-wide mkdir serialization
  // only; never read by simulation code
  static std::mutex dirMutex;
  const std::lock_guard lock(dirMutex);
  std::error_code ec;
  std::filesystem::create_directories(p.parent_path(), ec);
}

namespace {

bool writeAll(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void fail(const char* what, const std::string& path) {
  std::fprintf(stderr, "atomic_file: %s %s: %s\n", what, path.c_str(),
               std::strerror(errno));
}

}  // namespace

bool atomicWriteFile(const std::string& path, std::string_view content) {
  ensureParentDir(path);
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    fail("cannot create", tmp);
    return false;
  }
  const bool wrote = writeAll(fd, content.data(), content.size());
  // fsync before rename: the rename must only ever expose fully-persisted
  // bytes, otherwise a crash between rename and writeback re-creates the
  // torn-file problem this helper exists to close.
  const bool synced = wrote && ::fsync(fd) == 0;
  ::close(fd);
  if (!wrote || !synced) {
    fail(wrote ? "cannot fsync" : "cannot write", tmp);
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("cannot rename into place", path);
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace manet::util
