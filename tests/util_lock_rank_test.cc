// The runtime half of the lock-discipline story (util/lock_rank.h): debug
// builds rank-check every util::Mutex acquisition on a
// per-thread stack and abort on the first hierarchy violation; release
// builds compile the checker out entirely. Both branches are tested — this
// file compiles to the matching half under either build type.
#include "util/lock_rank.h"

#include <gtest/gtest.h>

#include <mutex>
#include <thread>

#include "util/mutex.h"

namespace camp::util {
namespace {

#if !defined(NDEBUG)

// ---------------------------------------------------------------------------
// Debug: the checker is live.
// ---------------------------------------------------------------------------

TEST(LockRankTest, AscendingChainPasses) {
  // Every rank in the repository, ascending: a worker's handoff lock, a
  // store shard (the only lock on the policy path), the shared precision
  // tuner fed under it, and the cluster's peer-link and leaf mutexes (see
  // util/lock_rank.h for the hierarchy).
  Mutex worker(LockRank::kServerWorker);
  Mutex store_shard(LockRank::kStoreShard);
  Mutex tuner(LockRank::kAutoTuner);
  Mutex links(LockRank::kClusterLinks);
  Mutex peer_link(LockRank::kClusterPeerLink);
  Mutex leaf(LockRank::kClusterLeaf);

  MutexLock l0(worker);
  MutexLock l1(store_shard);
  MutexLock l2(tuner);
  MutexLock l3(links);
  MutexLock l4(peer_link);
  MutexLock l5(leaf);
  EXPECT_EQ(lock_rank::held_count(), 6u);
}

TEST(LockRankTest, OutOfOrderReleaseIsTolerated) {
  // Releasing an outer lock before an inner one is legal (only acquisition
  // order is constrained); the stack search handles it.
  Mutex shard(LockRank::kStoreShard);
  Mutex leaf(LockRank::kClusterLeaf);
  shard.lock();
  leaf.lock();
  shard.unlock();
  EXPECT_EQ(lock_rank::held_count(), 1u);
  leaf.unlock();
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

TEST(LockRankTest, RanksArePerThread) {
  Mutex leaf(LockRank::kClusterLeaf);
  MutexLock hold(leaf);
  // Another thread starts with an empty stack: holding the highest rank
  // here must not constrain it.
  std::thread t([] {
    Mutex shard(LockRank::kStoreShard);
    MutexLock lock(shard);
    EXPECT_EQ(lock_rank::held_count(), 1u);
  });
  t.join();
  EXPECT_EQ(lock_rank::held_count(), 1u);
}

TEST(LockRankDeathTest, InversionDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Mutex leaf(LockRank::kClusterLeaf);
  Mutex shard(LockRank::kStoreShard);
  EXPECT_DEATH(
      {
        MutexLock outer(leaf);
        MutexLock inner(shard);  // cluster leaf -> store shard: inverted
      },
      "rank inversion");
}

TEST(LockRankDeathTest, EqualRankDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Mutex a(LockRank::kStoreShard);
  Mutex b(LockRank::kStoreShard);
  EXPECT_DEATH(
      {
        MutexLock l1(a);
        MutexLock l2(b);  // two store shards at once: deadlock-prone
      },
      "rank inversion");
}

TEST(LockRankDeathTest, ReleasingUnheldRankDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(lock_rank::released(LockRank::kAutoTuner), "not held");
}

#else  // defined(NDEBUG)

// ---------------------------------------------------------------------------
// Release: the checker is compiled out to zero cost.
// ---------------------------------------------------------------------------

TEST(LockRankTest, CheckerCompiledOutInRelease) {
  // The wrapper carries no rank bookkeeping: layout-identical to the
  // std::mutex it wraps.
  static_assert(sizeof(Mutex) == sizeof(std::mutex));

  // An inversion that would abort a debug build runs silently.
  Mutex leaf(LockRank::kClusterLeaf);
  Mutex shard(LockRank::kStoreShard);
  {
    MutexLock outer(leaf);
    MutexLock inner(shard);
    EXPECT_EQ(lock_rank::held_count(), 0u);  // no-op stub
  }
  SUCCEED();
}

#endif  // NDEBUG

}  // namespace
}  // namespace camp::util
