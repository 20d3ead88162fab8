// Annotated, rank-carrying mutex wrapper: the repository's ONLY mutex
// type on the locking surface (tools/check_lock_order enforces this for
// src/core, src/kvs and src/coop).
//
// The wrapper fuses the two lock-discipline checkers so they cannot drift
// apart:
//   * static  — Mutex carries the Clang Thread Safety CAPABILITY attribute
//     and MutexLock carries SCOPED_CAPABILITY, so `-Werror=thread-safety`
//     proves at compile time that every CAMP_GUARDED_BY field is touched
//     under its mutex and every CAMP_REQUIRES helper is called with the
//     lock held;
//   * dynamic — every mutex is constructed with a util::LockRank, and
//     debug builds push/pop that rank on a per-thread stack, aborting on
//     the first out-of-hierarchy acquisition (util/lock_rank.h). Release
//     builds compile the rank bookkeeping out entirely; the wrapper is
//     then layout-identical to the std::mutex it wraps.
//
// Locking idiom: prefer the scoped MutexLock over calling lock()/unlock()
// directly — the analysis models scopes precisely, and an early return can
// never leak a hold.
#pragma once

#include <mutex>

#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace camp::util {

/// Exclusive mutex with a fixed rank in the lock hierarchy.
class CAMP_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) noexcept
#if !defined(NDEBUG)
      : rank_(rank)
#endif
  {
    (void)rank;
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CAMP_ACQUIRE() {
    lock_rank::acquired(rank());
    m_.lock();
  }
  void unlock() CAMP_RELEASE() {
    m_.unlock();
    lock_rank::released(rank());
  }

 private:
  [[nodiscard]] LockRank rank() const noexcept {
#if !defined(NDEBUG)
    return rank_;
#else
    return LockRank::kServerWorker;  // unused: the checker is compiled out
#endif
  }

  std::mutex m_;
#if !defined(NDEBUG)
  LockRank rank_;
#endif
};

/// Scoped exclusive lock on a Mutex (lock_guard replacement).
class CAMP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) CAMP_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() CAMP_RELEASE() { m_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

}  // namespace camp::util
