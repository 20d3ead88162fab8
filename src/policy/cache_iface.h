// The narrow virtual interface every eviction policy implements.
//
// The simulator, the sweep driver, the KVS engine and the examples all talk
// to caches through ICache; concrete engines (CampCache, GdsCache, ...) are
// also usable directly where static dispatch matters (the figures'
// introspection counters, perfbench's policy layer).
//
// Terminology follows the paper: a cache stores key-value *metadata*
// (size in bytes, integer cost >= 1); the value payload itself lives in the
// KVS layer (src/kvs), not here. `get` applies the policy's hit side
// effects; on a miss the caller is expected to compute the value and `put`
// it, which evicts resident pairs until the new one fits.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace camp::policy {

using Key = std::uint64_t;

/// Raw operation counters. Cold-miss exclusion (the paper's metric rule) is
/// the simulator's job since only it knows whether a key was ever requested
/// before; see sim::Metrics.
struct CacheStats {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t puts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected_puts = 0;  // admission denied or larger than capacity

  [[nodiscard]] double hit_rate() const noexcept {
    return gets == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(gets);
  }
  [[nodiscard]] double miss_rate() const noexcept {
    return gets == 0 ? 0.0 : 1.0 - hit_rate();
  }
};

/// Invoked for every eviction with the victim's key and size. Used by the
/// simulator's occupancy tracker (Figures 6c/6d) and by the KVS engine to
/// free slab chunks.
using EvictionListener = std::function<void(Key, std::uint64_t size)>;

class ICache {
 public:
  virtual ~ICache() = default;

  /// Access a key. Returns true on a hit (and applies recency/priority side
  /// effects); false on a miss (no state change beyond counters).
  virtual bool get(Key key) = 0;

  /// Insert (or overwrite) a key with the given size and cost, evicting
  /// resident pairs as needed. Returns false when the pair is not admitted
  /// (e.g. larger than total capacity); the cache is unchanged then.
  virtual bool put(Key key, std::uint64_t size, std::uint64_t cost) = 0;

  /// True if the key is resident. No policy side effects.
  [[nodiscard]] virtual bool contains(Key key) const = 0;

  /// Remove a key if resident (explicit delete, not an eviction).
  virtual void erase(Key key) = 0;

  /// Evict the policy's current victim, firing the eviction listener.
  /// Returns false when the cache is empty or the policy does not support
  /// externally-driven eviction. The KVS engine uses this to free slab
  /// chunks under class pressure before resorting to slab reassignment.
  virtual bool evict_one() { return false; }

  [[nodiscard]] virtual std::uint64_t capacity_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t used_bytes() const = 0;
  [[nodiscard]] virtual std::size_t item_count() const = 0;
  [[nodiscard]] virtual const CacheStats& stats() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  virtual void set_eviction_listener(EvictionListener listener) = 0;
};

/// Implemented by policies whose rounding precision can be changed while
/// resident pairs stay cached: CAMP's retune path (core/camp.h) and the
/// self-tuning wrapper around it (core/auto_tuner.h).
class IRetunable {
 public:
  virtual ~IRetunable() = default;

  /// Switch the live precision and rebuild the queue topology in place.
  /// Returns true when the precision actually changed (retuning to the
  /// current value is a no-op and does not count as a retune). Throws
  /// std::invalid_argument for precision < 1.
  virtual bool retune(int precision) = 0;

  /// The precision the policy is CURRENTLY running at (post-retune), not
  /// the constructed one. Always >= 1.
  [[nodiscard]] virtual int precision() const = 0;

  /// Lifetime count of retune() calls that changed the precision.
  [[nodiscard]] virtual std::uint64_t retune_count() const = 0;
};

/// The retune capability of `cache`, or nullptr when the policy's precision
/// is not runtime-tunable.
[[nodiscard]] inline IRetunable* as_retunable(ICache* cache) noexcept {
  return dynamic_cast<IRetunable*>(cache);
}

/// Shared bookkeeping for concrete caches.
class CacheBase : public ICache {
 public:
  explicit CacheBase(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  [[nodiscard]] std::uint64_t capacity_bytes() const override {
    return capacity_;
  }
  [[nodiscard]] std::uint64_t used_bytes() const override { return used_; }
  [[nodiscard]] const CacheStats& stats() const override { return stats_; }
  void set_eviction_listener(EvictionListener listener) override {
    listener_ = std::move(listener);
  }

 protected:
  void note_eviction(Key key, std::uint64_t size) {
    ++stats_.evictions;
    used_ -= size;
    if (listener_) listener_(key, size);
  }

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  CacheStats stats_;
  EvictionListener listener_;
};

}  // namespace camp::policy
