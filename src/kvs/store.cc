#include "kvs/store.h"

#include <algorithm>
#include <stdexcept>

#include "util/key_hash.h"

namespace camp::kvs {

KvsStore::KvsStore(StoreConfig config, const PolicyFactory& policy_factory,
                   const util::Clock& clock) {
  if (config.shards == 0) {
    throw std::invalid_argument("StoreConfig: need at least one shard");
  }
  EngineConfig per_shard = config.engine;
  per_shard.slab.memory_limit_bytes =
      std::max<std::uint64_t>(config.engine.slab.memory_limit_bytes /
                                  config.shards,
                              per_shard.slab.slab_size_bytes);
  shards_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    EngineConfig cfg = per_shard;
    cfg.rng_seed = per_shard.rng_seed + i;
    // Construct the engine first and hand it to Shard's constructor so the
    // write to the guarded `engine` field happens inside Shard's own ctor,
    // which the thread-safety analysis treats as exclusive.
    shards_.push_back(std::make_unique<Shard>(
        std::make_unique<KvsEngine>(cfg, policy_factory, clock)));
  }
  if (config.autotune.has_value()) {
    tuner_ = std::make_shared<core::SharedAutoTuner>(*config.autotune);
    // Register every shard's policy budget (the tuner scales its shadows to
    // the logical total) and align the live policies with the tuner's
    // initial precision, so "current precision" is well-defined before the
    // first migration.
    for (const auto& shard : shards_) {
      util::MutexLock lock(shard->mutex);
      tuner_->register_capacity(shard->engine->policy_capacity_bytes());
      if (auto* tunable = shard->engine->retunable_policy()) {
        tunable->retune(config.autotune->initial_precision);
      }
    }
  }
}

KvsStore::Shard& KvsStore::shard_for(std::string_view key) const {
  return *shards_[static_cast<std::size_t>(util::key_hash(key) %
                                           shards_.size())];
}

void KvsStore::autotune_observe_locked(Shard& shard, std::string_view key,
                                       std::uint64_t size,
                                       std::uint64_t cost) {
  tuner_->observe(util::key_hash(key), size, cost);
  const std::uint64_t epoch = tuner_->epoch();
  if (epoch == shard.tuner_epoch_seen) return;
  shard.tuner_epoch_seen = epoch;
  if (auto* tunable = shard.engine->retunable_policy()) {
    tunable->retune(tuner_->current_precision());
  }
}

GetResult KvsStore::get(std::string_view key) {
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  GetResult result = shard.engine->get(key);
  // Hits feed the tuner here; a miss is observed by the set() that follows
  // it (same once-per-request rule as the policy-level wrapper).
  if (tuner_ != nullptr && result.hit) {
    autotune_observe_locked(shard, key, result.value.size(), result.cost);
  }
  return result;
}

GetResult KvsStore::iqget(std::string_view key) {
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  GetResult result = shard.engine->iqget(key);
  if (tuner_ != nullptr && result.hit) {
    autotune_observe_locked(shard, key, result.value.size(), result.cost);
  }
  return result;
}

StoredGetResult KvsStore::get_stored(std::string_view key) {
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  return shard.engine->get_stored(key);
}

bool KvsStore::set(std::string_view key, std::string_view value,
                   std::uint32_t flags, std::uint32_t cost,
                   std::uint32_t exptime_s) {
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  const bool stored = shard.engine->set(key, value, flags, cost, exptime_s);
  if (tuner_ != nullptr && stored) {
    autotune_observe_locked(shard, key, value.size(), cost);
  }
  return stored;
}

bool KvsStore::set_stored(std::string_view key, std::string_view stored,
                          std::uint32_t raw_len, Codec codec,
                          std::uint32_t flags, std::uint32_t cost,
                          std::uint32_t exptime_s) {
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  const bool ok = shard.engine->set_stored(key, stored, raw_len, codec, flags,
                                           cost, exptime_s);
  if (tuner_ != nullptr && ok) {
    autotune_observe_locked(shard, key, raw_len, cost);
  }
  return ok;
}

bool KvsStore::iqset(std::string_view key, std::string_view value,
                     std::uint32_t flags, std::uint32_t exptime_s) {
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  const bool ok = shard.engine->iqset(key, value, flags, exptime_s);
  if (tuner_ != nullptr && ok) {
    // The engine derived the cost internally (iqget miss timestamp delta);
    // read it back for the shadow stream.
    autotune_observe_locked(shard, key, value.size(),
                            shard.engine->cost_of(key));
  }
  return ok;
}

bool KvsStore::del(std::string_view key) {
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  return shard.engine->del(key);
}

bool KvsStore::contains(std::string_view key) const {
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  return shard.engine->contains(key);
}

void KvsStore::flush_all() {
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    shard->engine->flush_all();
  }
}

void KvsStore::for_each_item(
    const std::function<void(const ItemView&)>& fn) const {
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    shard->engine->for_each_item(fn);
  }
}

void KvsStore::set_eviction_hook(const EvictionHook& hook) {
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    shard->engine->set_eviction_hook(hook);
  }
}

void KvsStore::set_stored_hook(const StoredHook& hook) {
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    shard->engine->set_stored_hook(hook);
  }
}

EngineStats KvsStore::aggregated_stats() const {
  EngineStats agg;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    const EngineStats& s = shard->engine->stats();
    agg.gets += s.gets;
    agg.hits += s.hits;
    agg.sets += s.sets;
    agg.deletes += s.deletes;
    agg.rejected_sets += s.rejected_sets;
    agg.expired += s.expired;
    agg.slab_reassignments += s.slab_reassignments;
    agg.items += s.items;
    agg.value_bytes += s.value_bytes;
    agg.stored_bytes += s.stored_bytes;
    agg.compress_bails += s.compress_bails;
    agg.decompress_failures += s.decompress_failures;
  }
  return agg;
}

policy::CacheStats KvsStore::aggregated_policy_stats() const {
  policy::CacheStats agg;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    const policy::CacheStats& s = shard->engine->policy_stats();
    agg.gets += s.gets;
    agg.hits += s.hits;
    agg.misses += s.misses;
    agg.puts += s.puts;
    agg.evictions += s.evictions;
    agg.rejected_puts += s.rejected_puts;
  }
  return agg;
}

std::string KvsStore::policy_name() const {
  Shard& shard = *shards_.front();
  util::MutexLock lock(shard.mutex);
  return shard.engine->policy_name();
}

core::AutoTunerCounters KvsStore::autotune_counters() const {
  if (tuner_ == nullptr) {
    throw std::logic_error("KvsStore::autotune_counters: autotune disabled");
  }
  return tuner_->counters();
}

int KvsStore::autotune_precision() const {
  if (tuner_ == nullptr) {
    throw std::logic_error("KvsStore::autotune_precision: autotune disabled");
  }
  return tuner_->current_precision();
}

std::vector<int> KvsStore::autotune_candidates() const {
  if (tuner_ == nullptr) {
    throw std::logic_error("KvsStore::autotune_candidates: autotune disabled");
  }
  return tuner_->tuner_config().candidates;
}

std::optional<int> KvsStore::policy_precision() const {
  Shard& shard = *shards_.front();
  util::MutexLock lock(shard.mutex);
  auto* tunable = shard.engine->retunable_policy();
  if (tunable == nullptr) return std::nullopt;
  return tunable->precision();
}

}  // namespace camp::kvs
