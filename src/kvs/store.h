// KvsStore: the thread-safe front of the storage engine. Keys are hash
// partitioned across N independent KvsEngine shards, each guarded by its
// own mutex (the paper's Section 4.1 concurrency recipe applied at the
// store level). That shard mutex is the only concurrency layer on the
// policy path: every eviction-policy call runs under it, so policies are
// plain single-threaded ICaches. The server and the in-process transport
// both talk to this.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/auto_tuner.h"
#include "kvs/engine.h"
#include "util/mutex.h"

namespace camp::kvs {

struct StoreConfig {
  std::size_t shards = 4;
  EngineConfig engine;  // memory limit is split across shards
  /// CAMP precision auto-tuning (core/auto_tuner.h). When set, the store
  /// runs ONE SharedAutoTuner across all shards, feeds it every get/set's
  /// (stable string-key hash, size, cost) — engine-internal policy ids
  /// churn on re-admission, so the shadow stream must key on the string
  /// keys — and each shard lazily retunes its policy when the duel
  /// migrates. No-op for policies that are not retunable. Do not combine
  /// with the "camp:p=auto" policy spec (that wrapper feeds its own tuner).
  std::optional<core::AutoTunerConfig> autotune;
};

class KvsStore {
 public:
  KvsStore(StoreConfig config, const PolicyFactory& policy_factory,
           const util::Clock& clock);
  KvsStore(const KvsStore&) = delete;
  KvsStore& operator=(const KvsStore&) = delete;

  [[nodiscard]] GetResult get(std::string_view key);
  [[nodiscard]] GetResult iqget(std::string_view key);
  /// The resident (post-codec) form, no decompression (peer transfer,
  /// snapshots). See KvsEngine::get_stored.
  [[nodiscard]] StoredGetResult get_stored(std::string_view key);
  bool set(std::string_view key, std::string_view value, std::uint32_t flags,
           std::uint32_t cost, std::uint32_t exptime_s = 0);
  /// Store an already-encoded value verbatim. See KvsEngine::set_stored.
  bool set_stored(std::string_view key, std::string_view stored,
                  std::uint32_t raw_len, Codec codec, std::uint32_t flags,
                  std::uint32_t cost, std::uint32_t exptime_s = 0);
  bool iqset(std::string_view key, std::string_view value,
             std::uint32_t flags, std::uint32_t exptime_s = 0);
  bool del(std::string_view key);
  void flush_all();

  /// True if the key is resident (no policy side effects, expired pairs
  /// still count until their lazy removal).
  [[nodiscard]] bool contains(std::string_view key) const;

  /// Visit every resident, unexpired pair across all shards in its stored
  /// form (each shard walked under its own lock; see kvs::ItemView). Used
  /// by kvs/snapshot.h and the cluster's decommission drain.
  void for_each_item(const std::function<void(const ItemView&)>& fn) const;

  /// Install `hook` on every engine shard (see kvs::EvictionHook). Set it
  /// before serving traffic; pass nullptr to clear.
  void set_eviction_hook(const EvictionHook& hook);

  /// Install `hook` on every engine shard (see kvs::StoredHook). Set it
  /// before serving traffic; pass nullptr to clear.
  void set_stored_hook(const StoredHook& hook);

  [[nodiscard]] EngineStats aggregated_stats() const;
  [[nodiscard]] policy::CacheStats aggregated_policy_stats() const;
  [[nodiscard]] std::string policy_name() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  // -- precision auto-tuning (StoreConfig::autotune) --------------------------
  [[nodiscard]] bool autotune_enabled() const noexcept {
    return tuner_ != nullptr;
  }
  /// The duel's decision-trace ledger. Requires autotune_enabled().
  [[nodiscard]] core::AutoTunerCounters autotune_counters() const;
  /// The precision the duel currently favors. Requires autotune_enabled().
  [[nodiscard]] int autotune_precision() const;
  /// The candidate set. Requires autotune_enabled().
  [[nodiscard]] std::vector<int> autotune_candidates() const;
  /// The LIVE (post-retune) precision of the policy, independent of
  /// auto-tuning: nullopt when the policy is not retunable. STATS reports
  /// this as camp_precision_current.
  [[nodiscard]] std::optional<int> policy_precision() const;

 private:
  struct Shard {
    explicit Shard(std::unique_ptr<KvsEngine> e) : engine(std::move(e)) {}

    // kStoreShard is the OUTERMOST cache-side rank: the engine's eviction
    // hook fires under this lock and may descend through a policy shard,
    // the CAMP internals, and finally the cluster's leaf mutex.
    mutable util::Mutex mutex{util::LockRank::kStoreShard};
    // Set once in the constructor, never reseated; the serial engine behind
    // it is only thread-safe under the shard lock.
    std::unique_ptr<KvsEngine> engine CAMP_GUARDED_BY(mutex)
        CAMP_PT_GUARDED_BY(mutex);
    /// SharedAutoTuner::epoch() this shard has caught up with; a mismatch
    /// on the next access retunes this shard's policy (lazy migration —
    /// shards never lock each other).
    std::uint64_t tuner_epoch_seen CAMP_GUARDED_BY(mutex) = 0;
  };

  [[nodiscard]] Shard& shard_for(std::string_view key) const;

  /// Feed one access into the shared tuner and apply any pending migration
  /// to THIS shard. Caller holds the shard lock; the tuner mutex (rank
  /// kAutoTuner) nests inside it and is released before the retune.
  void autotune_observe_locked(Shard& shard, std::string_view key,
                               std::uint64_t size, std::uint64_t cost)
      CAMP_REQUIRES(shard.mutex);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::shared_ptr<core::SharedAutoTuner> tuner_;
};

}  // namespace camp::kvs
