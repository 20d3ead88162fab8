// The KVS storage engine: slab-allocated values + a pluggable eviction
// policy, mirroring the paper's IQ Twemcache implementation (Section 4).
//
// The engine wires three pieces together:
//   * a SlabAllocator holding the actual bytes,
//   * an eviction policy (LRU or CAMP via policy::ICache) deciding *which*
//     pair to drop when memory runs out, and
//   * the IQ cost capture: an iqget that misses records a timestamp; the
//     subsequent iqset uses (set_time - miss_time) as the pair's cost
//     ("the difference between these two timestamps is used as the cost").
//
// Each resident pair is one pooled Item (util::ChunkPool) holding its chunk
// and metadata, found through one open-addressing index (util::FlatTable)
// keyed by the key's 64-bit hash (util::key_hash). The key itself is kept
// once, in the pair's slab chunk: a lookup confirms a hash match against
// the chunk's key bytes, and keys that share a hash simply sit side by
// side in the index. A second FlatTable maps the policy id to the item for
// the policy's eviction callback. No lookup builds a std::string.
//
// Not thread-safe by itself: KvsStore (kvs/store.h) provides the
// hash-partitioned, per-shard-locked wrapper from the paper's Section 4.1.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "kvs/item.h"
#include "policy/cache_iface.h"
#include "slab/slab_allocator.h"
#include "util/clock.h"
#include "util/flat_table.h"
#include "util/rng.h"

namespace camp::kvs {

/// Builds the eviction policy for a given byte budget ("lru", "camp", any
/// policy_factory spec).
using PolicyFactory =
    std::function<std::unique_ptr<policy::ICache>(std::uint64_t capacity)>;

struct EngineConfig {
  slab::SlabConfig slab;
  /// Fraction of slab memory the policy may account for; the headroom
  /// absorbs per-class fragmentation so policy evictions usually free a
  /// usable chunk before the allocator runs dry.
  double policy_fill_fraction = 0.85;
  /// Scale ns timestamps to cost units for iqset (1000 = microseconds).
  std::uint64_t cost_time_divisor_ns = 1000;
  std::uint64_t rng_seed = 0x5eedc0de;
  /// Transparent value compression (kvs/compress.h). Off by default: the
  /// identity layout keeps every pre-compression baseline byte-identical.
  CompressionConfig compression;
};

struct EngineStats {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t sets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t rejected_sets = 0;
  std::uint64_t expired = 0;  // pairs lazily dropped on an expired get
  std::uint64_t slab_reassignments = 0;
  std::uint64_t items = 0;
  std::uint64_t value_bytes = 0;   // RAW payload bytes currently resident
  std::uint64_t stored_bytes = 0;  // post-codec payload bytes resident
  /// Values that attempted compression but stayed identity (no codec beat
  /// the raw size).
  std::uint64_t compress_bails = 0;
  /// Stored bytes that failed to decode on read (corrupt peer transfer);
  /// the pair is dropped and the read misses.
  std::uint64_t decompress_failures = 0;
};

struct GetResult {
  bool hit = false;
  std::string value;
  std::uint32_t flags = 0;
  /// The stored pair's integer cost. Plain client replies do not carry it;
  /// the cluster's peer-fetch path does (promotions must preserve the cost
  /// the pair was originally stored with).
  std::uint32_t cost = 0;
  /// Seconds until the pair expires, rounded up; 0 = never expires. Carried
  /// by the peer-fetch path so promotions preserve the remaining lease.
  std::uint32_t remaining_ttl_s = 0;
};

/// A stored pair in its resident (post-codec) form, as surfaced by
/// get_stored, for_each_item and the eviction hook. `stored` is the bytes
/// actually kept in the chunk; `raw_len` is the client-visible length the
/// stored bytes decode to (equal to stored.size() for identity items).
struct StoredGetResult {
  bool hit = false;
  std::string stored;
  std::uint32_t raw_len = 0;
  Codec codec = Codec::kIdentity;
  std::uint32_t flags = 0;
  std::uint32_t cost = 0;
  std::uint32_t remaining_ttl_s = 0;
};

/// A resident pair the engine is dropping under memory pressure (policy
/// eviction or slab reassignment). The views point into the pair's chunk
/// and are valid only for the duration of the hook call. Reports BOTH the
/// raw size (`raw_len`) and the charged size (`charged_bytes`) — listeners
/// must not re-derive either from the stored bytes they receive.
struct EvictedItem {
  std::string_view key;
  /// The resident bytes (post-codec); decode with `codec` + `raw_len` to
  /// recover the client-visible value.
  std::string_view stored;
  std::uint32_t raw_len = 0;
  Codec codec = Codec::kIdentity;
  std::uint32_t flags = 0;
  std::uint32_t cost = 0;
  /// Bytes the eviction policy accounted for the pair (its chunk size).
  std::uint64_t charged_bytes = 0;
  /// Seconds left on the pair's lease (rounded up); 0 = never expires.
  /// Already-expired pairs never reach the hook.
  std::uint32_t remaining_ttl_s = 0;
};

/// One resident pair as seen by for_each_item: the stored form plus every
/// size the byte-accounting layers care about.
struct ItemView {
  std::string_view key;
  std::string_view stored;
  std::uint32_t raw_len = 0;
  Codec codec = Codec::kIdentity;
  std::uint32_t flags = 0;
  std::uint32_t cost = 0;
  /// 0 for pairs that never expire, else the seconds left (>= 1).
  std::uint32_t remaining_ttl_s = 0;
  /// The chunk size the policy accounts for the pair.
  std::uint64_t charged_bytes = 0;
};

/// Invoked for every pressure-driven drop BEFORE the pair's memory is
/// reclaimed. NOT invoked for explicit overwrites, deletes, flush_all or
/// lazy expiry — those are caller-visible removals — nor for pairs whose
/// TTL already lapsed (nothing of value is lost). The cooperative cluster
/// (kvs/cluster.h) uses this to keep its replica directory consistent and
/// to park last replicas in the guard. Runs while the engine (and its store
/// shard lock) is held: the hook must not call back into the engine/store.
using EvictionHook = std::function<void(const EvictedItem&)>;

/// Invoked at the end of every SUCCESSFUL set/iqset with the stored key,
/// still under the engine (and store shard) lock — so for any one key,
/// stored and evicted notifications are totally ordered by the shard's
/// critical sections. The cluster's replica directory relies on that
/// ordering: registering the replica from a hook cannot race the pair's
/// own eviction the way an add after the store call returned could.
using StoredHook = std::function<void(std::string_view key)>;

class KvsEngine {
 public:
  /// `clock` must outlive the engine. The policy factory receives the
  /// policy byte budget (fill fraction * slab memory limit).
  KvsEngine(EngineConfig config, const PolicyFactory& policy_factory,
            const util::Clock& clock);
  KvsEngine(const KvsEngine&) = delete;
  KvsEngine& operator=(const KvsEngine&) = delete;

  /// Plain get. Copies the value out (the caller may outlive the chunk).
  /// An expired pair counts as a miss and is lazily removed (twemcache's
  /// "replace an expired key-value" allocation step happens through here).
  [[nodiscard]] GetResult get(std::string_view key);

  /// IQ get: a miss records the miss timestamp for cost capture.
  [[nodiscard]] GetResult iqget(std::string_view key);

  /// Get the pair in its resident (post-codec) form without decompressing.
  /// Same hit/miss accounting and policy touch as get(); the peer-transfer
  /// path uses this so already-compressed payloads move between nodes
  /// without a decompress/recompress round-trip.
  [[nodiscard]] StoredGetResult get_stored(std::string_view key);

  /// Store with an explicit cost (0 means "unknown": clamps to 1).
  /// `exptime_s` = seconds until expiry, 0 = never (memcached semantics).
  /// Compresses the value first when EngineConfig::compression allows.
  bool set(std::string_view key, std::string_view value, std::uint32_t flags,
           std::uint32_t cost, std::uint32_t exptime_s = 0);

  /// Store an already-encoded value verbatim under `codec` (peer transfer,
  /// snapshot restore). `raw_len` must be the decoded length; the engine
  /// trusts it (the wire/snapshot entry points validate by decoding).
  /// kIdentity delegates to set(), so a raw payload round-trips through
  /// this node's own compression config exactly like a client set.
  bool set_stored(std::string_view key, std::string_view stored,
                  std::uint32_t raw_len, Codec codec, std::uint32_t flags,
                  std::uint32_t cost, std::uint32_t exptime_s = 0);

  /// IQ set: cost = elapsed time since the iqget miss (scaled), or 1 when
  /// no miss was recorded.
  bool iqset(std::string_view key, std::string_view value,
             std::uint32_t flags, std::uint32_t exptime_s = 0);

  bool del(std::string_view key);
  void flush_all();

  [[nodiscard]] bool contains(std::string_view key) const;

  /// Stored cost of a resident pair (0 if absent; no policy side effects).
  /// The store's auto-tune feed reads this after iqset, where the engine
  /// derived the cost internally from the iqget miss timestamp.
  [[nodiscard]] std::uint32_t cost_of(std::string_view key) const;

  /// Visit every resident pair in its stored form (see ItemView). Expired
  /// pairs are skipped (this is a const walk; lazy removal still happens on
  /// the next get). Used by the snapshot module (kvs/snapshot.h) and the
  /// cluster's decommission drain; order unspecified.
  void for_each_item(const std::function<void(const ItemView&)>& fn) const;

  /// See EvictionHook. Replaces any previous hook; pass nullptr to clear.
  void set_eviction_hook(EvictionHook hook) {
    eviction_hook_ = std::move(hook);
  }

  /// See StoredHook. Replaces any previous hook; pass nullptr to clear.
  void set_stored_hook(StoredHook hook) { stored_hook_ = std::move(hook); }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] const policy::CacheStats& policy_stats() const {
    return policy_->stats();
  }
  [[nodiscard]] std::string policy_name() const { return policy_->name(); }
  /// Bytes the policy currently accounts for — CHARGED (post-codec chunk)
  /// bytes, not raw payload bytes.
  [[nodiscard]] std::uint64_t policy_used_bytes() const {
    return policy_->used_bytes();
  }
  /// The policy's byte budget (fill fraction * shard slab memory); the
  /// store registers this with the precision auto-tuner.
  [[nodiscard]] std::uint64_t policy_capacity_bytes() const {
    return policy_->capacity_bytes();
  }
  /// The policy's retune capability, or nullptr for non-CAMP policies.
  /// STATS uses it to report the live (post-retune) precision; the store's
  /// auto-tune feed uses it to apply duel migrations.
  [[nodiscard]] policy::IRetunable* retunable_policy() noexcept {
    return policy::as_retunable(policy_.get());
  }
  [[nodiscard]] const slab::SlabAllocator& allocator() const { return slab_; }

  /// Every item is reachable by its hash and by its id, and its chunk's key
  /// hashes and maps back to it; the item pool's live count, both indexes,
  /// EngineStats::items and the policy's item_count() agree; value_bytes
  /// and stored_bytes equal their sums over the items. O(items): tests only.
  [[nodiscard]] bool check_invariants() const;

 private:
  /// A resident pair's engine-side metadata: one cache line, so a lookup
  /// misses on its index slot, its item and its chunk, no more. Flags and
  /// cost live only in the chunk's ItemHeader, read on every hit anyway.
  struct alignas(64) Item {
    std::uint64_t hash = 0;  // util::key_hash of the key in the chunk
    policy::Key id = 0;
    slab::Chunk chunk;
    std::uint32_t raw_len = 0;     // client-visible value length
    std::uint32_t stored_len = 0;  // post-codec bytes in the chunk
    std::uint64_t expiry_ns = 0;   // 0 = never expires
    Codec codec = Codec::kIdentity;
  };
  static_assert(sizeof(Item) == 64, "an Item is one cache line");

  /// Shared tail of set()/set_stored(): charge, allocate, write the chunk.
  /// `stored` is the exact bytes to keep under `codec`; stats (sets,
  /// rejected_sets) for the public entry points are handled by callers.
  bool store_internal(std::string_view key, std::string_view stored,
                      std::uint32_t raw_len, Codec codec, std::uint32_t flags,
                      std::uint32_t cost, std::uint32_t exptime_s);
  /// The resident item for `key` (whose util::key_hash is `hash`), or null.
  [[nodiscard]] Item* find_item(std::uint64_t hash,
                                std::string_view key) const;
  [[nodiscard]] bool expired(const Item& item) const {
    return item.expiry_ns != 0 && clock_.now_ns() >= item.expiry_ns;
  }
  /// A caller-visible removal (delete, overwrite, expiry, flush): the
  /// policy forgets the id without an eviction callback.
  void erase_item(Item* item);
  /// Unindex the item, settle the stats and return it to the pool.
  void remove_item(Item* item, bool free_chunk);
  void on_policy_eviction(policy::Key id);
  /// Fire eviction_hook_ for a still-resident pair about to be dropped
  /// under pressure.
  void notify_eviction(const Item& item);
  [[nodiscard]] std::optional<slab::Chunk> allocate_with_pressure(
      std::uint64_t footprint);

  EngineConfig config_;
  slab::SlabAllocator slab_;
  std::unique_ptr<policy::ICache> policy_;
  const util::Clock& clock_;
  util::Xoshiro256 rng_;
  util::ChunkPool<Item> items_;
  util::FlatTable<Item> by_hash_;  // key hash -> item (equal hashes allowed)
  util::FlatTable<Item> by_id_;    // policy id -> item
  // Only iqget misses land here, so it stays a plain string-keyed map.
  std::unordered_map<std::string, std::uint64_t> miss_timestamps_;
  policy::Key next_id_ = 1;
  // Set in flight: the policy already accounts for this id but its chunk is
  // not allocated yet. If pressure eviction picks it as the victim, the set
  // aborts instead of dereferencing a not-yet-existing item.
  policy::Key pending_id_ = 0;
  bool pending_evicted_ = false;
  EvictionHook eviction_hook_;
  StoredHook stored_hook_;
  EngineStats stats_;
};

}  // namespace camp::kvs
