// Debug-build runtime lock-rank checker: the dynamic twin of the Clang
// Thread Safety Annotations (util/thread_annotations.h). Every util::Mutex
// carries a LockRank; a thread may only acquire a lock whose rank is
// STRICTLY greater than every rank it already holds, so a
// rank inversion — the seed of every lock-order deadlock — aborts the
// process at the first wrong acquisition on ANY schedule, instead of
// deadlocking only when two threads interleave just so.
//
// The rank values encode the repository's documented hierarchy (see README
// "Static analysis & sanitizers"); the canonical deep chain is
//
//   store shard -> auto-tuner -> cluster leaf
//
// i.e. an engine operation runs its eviction policy, which has no lock of
// its own, under its store shard lock, may feed the shared precision
// tuner, and may finish in the cluster's strict-leaf metadata mutex. Peer-link
// locks sit between the tuner and the cluster leaf but are in practice
// taken with nothing held.
//
// Release builds (NDEBUG) compile the checker out completely: the
// push/pop helpers become empty inlines and util::Mutex does not even
// store its rank (tests/util_lock_rank_test.cc pins both properties).
#pragma once

#include <cstddef>

namespace camp::util {

/// Total order over every mutex in the tree. Values are spaced so future
/// subsystems can slot in without renumbering.
enum class LockRank : int {
  /// KvsServer::Worker::mutex — pending/live fd handoff between the
  /// acceptor, the worker and stop(). Never held while taking any other
  /// lock; ranked lowest so holding it forbids nothing by accident.
  kServerWorker = 100,

  /// KvsStore::Shard::mutex — the engine shard critical section, and the
  /// only lock on the policy path: every eviction-policy call and the
  /// cluster hooks run under it.
  kStoreShard = 200,

  /// core::SharedAutoTuner::mutex_ — the shadow-cache duel state of the
  /// precision auto-tuner. Fed under a store shard lock (200); never held
  /// while taking a shard lock (shards apply migrations lazily, under
  /// their own locks, after the tuner call returned).
  kAutoTuner = 350,

  /// CoopCluster::links_mutex_ — guards the peer-link map, not the links.
  kClusterLinks = 600,
  /// CoopCluster::PeerLink::mutex — serializes one peer connection's users.
  kClusterPeerLink = 610,

  /// CoopCluster::mutex_ — the STRICT LEAF: ring, directory, guard and
  /// counters. Engine eviction/stored hooks take it while holding a store
  /// shard lock (and everything in between); nothing may be acquired
  /// under it.
  kClusterLeaf = 900,
};

namespace lock_rank {

#if !defined(NDEBUG)

/// Record an acquisition. Aborts (after printing both ranks) when `rank` is
/// not above the top of this thread's held-rank stack.
void acquired(LockRank rank) noexcept;

/// Record a release. Removes the most recent occurrence of `rank`; aborts
/// if this thread does not hold it.
void released(LockRank rank) noexcept;

/// Number of ranked locks the calling thread currently holds (tests).
[[nodiscard]] std::size_t held_count() noexcept;

#else

inline void acquired(LockRank) noexcept {}
inline void released(LockRank) noexcept {}
[[nodiscard]] inline std::size_t held_count() noexcept { return 0; }

#endif  // !defined(NDEBUG)

}  // namespace lock_rank

}  // namespace camp::util
