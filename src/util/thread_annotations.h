// Clang Thread Safety Analysis attribute macros.
//
// The parallel sweep runner (src/scenario/runner.cc) executes whole
// simulation runs on worker threads, and the region-parallel scheduler on
// the roadmap will push sharing deeper into the engine. These macros let
// every mutex-protected structure state its locking contract in the type
// system: which mutex guards which data (GUARDED_BY), which functions need
// a lock held (REQUIRES) or must be called without it (EXCLUDES), and which
// types are capabilities (CAPABILITY) or RAII lock holders
// (SCOPED_CAPABILITY). Clang's -Wthread-safety -Wthread-safety-beta then
// proves the discipline at compile time — a data race on an annotated
// structure is a build error, not a TSan lottery ticket.
//
// On GCC (which has no thread-safety analysis) every macro expands to
// nothing, so annotated code compiles identically everywhere; the CI
// thread-safety job is the enforcing build. The spellings follow the Clang
// documentation's canonical mutex.h so the annotations read like the
// upstream examples.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define MANET_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef MANET_THREAD_ANNOTATION__
#define MANET_THREAD_ANNOTATION__(x)  // expands away outside Clang
#endif

#define CAPABILITY(x) MANET_THREAD_ANNOTATION__(capability(x))

#define SCOPED_CAPABILITY MANET_THREAD_ANNOTATION__(scoped_lockable)

#define GUARDED_BY(x) MANET_THREAD_ANNOTATION__(guarded_by(x))

#define PT_GUARDED_BY(x) MANET_THREAD_ANNOTATION__(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
  MANET_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
  MANET_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
  MANET_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
  MANET_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) \
  MANET_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
  MANET_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) \
  MANET_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
  MANET_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

#define RELEASE_GENERIC(...) \
  MANET_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
  MANET_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

#define TRY_ACQUIRE_SHARED(...) \
  MANET_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))

#define EXCLUDES(...) MANET_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) \
  MANET_THREAD_ANNOTATION__(assert_capability(x))

#define ASSERT_SHARED_CAPABILITY(x) \
  MANET_THREAD_ANNOTATION__(assert_shared_capability(x))

#define RETURN_CAPABILITY(x) MANET_THREAD_ANNOTATION__(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
  MANET_THREAD_ANNOTATION__(no_thread_safety_analysis)
