// Clang Thread Safety Analysis macros (no-ops on other compilers), in the
// style every production cache/KV codebase uses (abseil, folly, leveldb):
// annotate which mutex guards which field and which lock a helper requires,
// and `-Werror=thread-safety` turns an unguarded access into a BUILD error
// instead of a TSan flake that needs the right interleaving to fire.
//
// Conventions in this repository (see README "Static analysis & sanitizers"):
//   * every mutex member is a util::Mutex (util/mutex.h), which carries the
//     CAPABILITY attribute and a LockRank (util/lock_rank.h) so the static
//     annotations and the debug runtime rank checker share one source of
//     truth;
//   * fields with a single guarding mutex carry CAMP_GUARDED_BY;
//   * helpers named `*_locked` / `*_exclusive` carry CAMP_REQUIRES (tools/
//     check_lock_order greps that this stays true).
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define CAMP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define CAMP_THREAD_ANNOTATION_(x)  // no-op on GCC/MSVC
#endif

/// Marks a type as a lockable capability ("mutex").
#define CAMP_CAPABILITY(x) CAMP_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define CAMP_SCOPED_CAPABILITY CAMP_THREAD_ANNOTATION_(scoped_lockable)

/// Field is protected by the given capability; reads need at least shared
/// access, writes need exclusive access.
#define CAMP_GUARDED_BY(x) CAMP_THREAD_ANNOTATION_(guarded_by(x))

/// The data POINTED TO by this pointer is protected by the capability.
#define CAMP_PT_GUARDED_BY(x) CAMP_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function acquires the capability exclusively (held on return).
#define CAMP_ACQUIRE(...) \
  CAMP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define CAMP_RELEASE(...) \
  CAMP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function acquires exclusively iff it returns the given value.
#define CAMP_TRY_ACQUIRE(...) \
  CAMP_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Caller must hold the capability exclusively (the `*_locked` contract).
#define CAMP_REQUIRES(...) \
  CAMP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function takes it itself).
#define CAMP_EXCLUDES(...) CAMP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define CAMP_RETURN_CAPABILITY(x) CAMP_THREAD_ANNOTATION_(lock_returned(x))

/// Runtime assertion that the calling thread holds the capability.
#define CAMP_ASSERT_CAPABILITY(x) \
  CAMP_THREAD_ANNOTATION_(assert_capability(x))

/// Escape hatch for code whose locking the analysis cannot model (document
/// WHY at every use).
#define CAMP_NO_THREAD_SAFETY_ANALYSIS \
  CAMP_THREAD_ANNOTATION_(no_thread_safety_analysis)
