// Annotated mutex primitives for Clang Thread Safety Analysis.
//
// libstdc++'s std::mutex carries no capability attributes, so code locking
// it directly is invisible to -Wthread-safety: the analysis would demand
// GUARDED_BY proofs it can never discharge. These thin wrappers are the
// repo's sanctioned locking vocabulary — util::Mutex is the CAPABILITY,
// util::MutexLock the RAII holder the analysis tracks.
//
// Locking discipline: critical sections are MutexLock scopes, so no early
// return or exception can leak a held lock. CI's `thread-safety` job builds
// src/ with -Werror=thread-safety-*, which checks every acquire against its
// release; the `tsan` job checks the runs themselves. src/ has two mutexes,
// the runner's progress-line lock and the mkdir lock in ensureParentDir;
// each serializes an external resource, so no member is GUARDED_BY.
#pragma once

#include <mutex>

#include "src/util/thread_annotations.h"

namespace manet::util {

/// A std::mutex the thread-safety analysis can reason about. Members name
/// it in GUARDED_BY(...); functions in REQUIRES(...)/EXCLUDES(...).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII critical section over a util::Mutex; the only sanctioned way to
/// hold one outside src/util/mutex.h itself.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace manet::util
