// Self-tuning precision for CAMP: sampled shadow caches + set dueling.
//
// CAMP's precision parameter trades rounding error (decision quality)
// against queue count (work per operation); the paper sweeps it offline
// (fig5a) and freezes the winner in config. This module picks it at
// runtime instead, in the style of Safecracker's CAMPReplPolicy (sampled
// sets + psel counters dueling between competing behaviors):
//
//   * A deterministic hash over the key space samples ~1/2^sample_shift of
//     the request stream (~1/64 at the default). Sampling is a pure
//     function of (key, salt) — independent of sharding, threading and
//     wall-clock — so the same trace always produces the same duel.
//   * Every candidate precision runs a tiny scaled-capacity CampCache
//     ("shadow") fed only the sampled stream: the same keys-to-bytes ratio
//     as the live cache, at 1/2^sample_shift of its footprint.
//   * Every `window_samples` sampled accesses (op-count-driven, NEVER
//     wall-clock) the shadows duel: the candidate with the lowest missed
//     cost in the window wins and its saturating psel counter rises while
//     the others decay. When the winner's psel reaches `psel_threshold`
//     and it is not the live setting, the live setting migrates and every
//     psel resets.
//   * Every decision input is ledgered in AutoTunerCounters (plus an
//     explicit migration list), so the adaptation itself is deterministic,
//     replayable and baselineable (fig_autotune pins it in CI).
//
// AutoTuner is a single-threaded decision core; SharedAutoTuner is the
// thread-safe facade one *logical* cache shares across all of its shards
// (KvsStore shards, or every cache one "camp:p=auto" factory builds).
// Shards never retune each other: the tuner only bumps an atomic epoch,
// and each shard compares it against its last-seen value and retunes
// itself lazily under its own lock — no cross-shard lock edges, and the
// psel trace is identical for any shard count (tests/camp_autotune_test.cc
// pins 1 and 4 key-hash-routed shards).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/camp.h"
#include "policy/cache_iface.h"
#include "util/mutex.h"

namespace camp::core {

struct AutoTunerConfig {
  /// Candidate precisions, one shadow cache each. Non-empty, unique, every
  /// value >= 1 (util::kPrecisionInfinity = GDS-exact decisions).
  std::vector<int> candidates{1, 2, 5, util::kPrecisionInfinity};
  /// The live setting assumed at start (what the live cache was built
  /// with). Does not have to be a candidate, but then the duel can only
  /// ever migrate away from it.
  int initial_precision = 5;
  /// A key joins the shadow stream iff the low `sample_shift` bits of its
  /// salted hash are zero: ~1/2^sample_shift of keys (~1/64 by default).
  std::uint32_t sample_shift = 6;
  /// Shadow capacity in bytes. 0 = live capacity >> sample_shift, the same
  /// keys-to-bytes ratio as the live cache over the sampled key subspace.
  std::uint64_t shadow_capacity_bytes = 0;
  /// Sampled accesses per duel window.
  std::uint32_t window_samples = 256;
  /// psel value (saturated at this bound) a challenger must reach to
  /// migrate the live setting; higher = slower but steadier adaptation.
  std::int32_t psel_threshold = 4;
  /// Salt folded into the sampling hash (decorrelates the sample from any
  /// other hash-of-key use, e.g. shard selection).
  std::uint64_t salt = 0xCA3DA7A5EEDULL;

  void validate() const;  // throws std::invalid_argument on nonsense
};

/// One migration of the live setting, in sampled-op time.
struct AutoTunerDecision {
  std::uint64_t sampled_ops = 0;  // counters.sampled when the duel fired
  int from = 0;
  int to = 0;
};

/// The replayable decision-trace ledger. Everything here is derived purely
/// from the observed (key, size, cost) stream, so equal traces give equal
/// ledgers — byte-stable in the fig_autotune baseline.
struct AutoTunerCounters {
  std::uint64_t ops = 0;      // every observed access
  std::uint64_t sampled = 0;  // accesses that joined the shadow stream
  std::uint64_t windows = 0;  // duel windows completed
  std::uint64_t retunes = 0;  // migrations of the live setting
  std::vector<std::int64_t> psel;           // per candidate, current value
  std::vector<std::uint64_t> window_wins;   // per candidate, lifetime
  std::vector<std::uint64_t> shadow_hits;   // per candidate, lifetime
  std::vector<std::uint64_t> shadow_misses;  // per candidate, lifetime
};

/// Single-threaded decision core. Not an ICache: callers feed it one
/// (key, size, cost) per live-cache access — a hit's resident metadata, or
/// the put() that follows a miss — and apply the returned migration.
class AutoTuner {
 public:
  AutoTuner(AutoTunerConfig config, std::uint64_t live_capacity_bytes);

  /// Observe one access. Returns the new precision when this access
  /// completes a window whose duel migrates the live setting.
  std::optional<int> observe(policy::Key key, std::uint64_t size,
                             std::uint64_t cost);

  /// True iff `key` belongs to the sampled shadow stream (pure function).
  [[nodiscard]] bool is_sampled(policy::Key key) const noexcept;

  [[nodiscard]] int current_precision() const noexcept { return current_; }
  [[nodiscard]] const AutoTunerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const AutoTunerCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::vector<AutoTunerDecision>& decisions()
      const noexcept {
    return decisions_;
  }

  /// Compact textual psel/migration trace, e.g. "w1:p5;w2:p5;w2>p64;...":
  /// one "w<window>:p<winner>" per completed window and one
  /// "w<window>>p<to>" per migration. Two runs over the same trace must
  /// produce byte-identical strings (the determinism tests compare these).
  [[nodiscard]] std::string trace() const;

 private:
  /// Close the current duel window; returns the migration, if any.
  std::optional<int> end_window();

  AutoTunerConfig config_;
  std::vector<std::unique_ptr<CampCache>> shadows_;  // one per candidate
  std::vector<std::uint64_t> window_miss_cost_;      // per candidate
  int current_;
  std::uint32_t window_fill_ = 0;
  AutoTunerCounters counters_;
  std::vector<AutoTunerDecision> decisions_;
  std::string trace_;
};

/// Thread-safe facade shared by every shard of one logical cache.
///
/// Shards register their capacity at construction time; the AutoTuner (and
/// its shadow caches) materializes on the first observed access, so the
/// shadow scale reflects the FULL logical capacity no matter how many
/// shards the bytes were split across — another ingredient of the
/// shard-count-independent psel trace.
///
/// Migration protocol: observe() only bumps the atomic `epoch`. Each shard
/// keeps the epoch it last saw and, when it differs, retunes its own
/// policy (under its own lock) to current_precision(). The tuner mutex
/// ranks at util::LockRank::kAutoTuner, above the store shards that feed
/// it; nothing else is locked while it is held.
class SharedAutoTuner {
 public:
  explicit SharedAutoTuner(AutoTunerConfig config);

  /// Add a shard's capacity to the logical total. Must happen before the
  /// first observe() (shards register from their constructors); throws
  /// std::logic_error afterwards.
  void register_capacity(std::uint64_t bytes);

  /// Thread-safe AutoTuner::observe.
  void observe(policy::Key key, std::uint64_t size, std::uint64_t cost);

  /// The precision the duel currently favors (= what every shard should be
  /// retuned to).
  [[nodiscard]] int current_precision() const;

  /// Bumped once per migration; lock-free read for the per-op epoch check.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  [[nodiscard]] AutoTunerConfig tuner_config() const;
  [[nodiscard]] AutoTunerCounters counters() const;
  [[nodiscard]] std::vector<AutoTunerDecision> decisions() const;
  [[nodiscard]] std::string trace() const;

 private:
  /// The lazily-built decision core; materializes it on first use (const
  /// accessors may be the first caller, hence the mutable members).
  AutoTuner& tuner_locked() const CAMP_REQUIRES(mutex_);

  AutoTunerConfig config_;
  mutable util::Mutex mutex_{util::LockRank::kAutoTuner};
  mutable std::uint64_t registered_capacity_ CAMP_GUARDED_BY(mutex_) = 0;
  mutable std::unique_ptr<AutoTuner> tuner_ CAMP_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> epoch_{0};
};

/// ICache wrapper pairing a live CampCache with a (possibly shared)
/// SharedAutoTuner: the simulator/figures-facing form of self-tuning CAMP
/// ("camp:p=auto" in policy_factory). Mirrors every access into the tuner
/// — a hit's resident metadata on get(), the incoming pair on put() (the
/// simulator protocol puts after every non-cold miss, so each request is
/// observed at most once) — and applies pending migrations lazily before
/// each operation. name() reports the live (post-retune) precision.
class SelfTuningCampCache final : public policy::ICache,
                                  public policy::IRetunable {
 public:
  using Key = policy::Key;

  /// `config.precision` should equal the tuner's initial_precision; the
  /// shared-tuner factory (make_policy_factory) guarantees this.
  SelfTuningCampCache(CampConfig config,
                      std::shared_ptr<SharedAutoTuner> tuner);

  bool get(Key key) override;
  bool put(Key key, std::uint64_t size, std::uint64_t cost) override;
  [[nodiscard]] bool contains(Key key) const override {
    return live_.contains(key);
  }
  void erase(Key key) override { live_.erase(key); }
  bool evict_one() override { return live_.evict_one(); }
  [[nodiscard]] std::uint64_t capacity_bytes() const override {
    return live_.capacity_bytes();
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return live_.used_bytes();
  }
  [[nodiscard]] std::size_t item_count() const override {
    return live_.item_count();
  }
  [[nodiscard]] const policy::CacheStats& stats() const override {
    return live_.stats();
  }
  [[nodiscard]] std::string name() const override;
  void set_eviction_listener(policy::EvictionListener listener) override {
    live_.set_eviction_listener(std::move(listener));
  }

  // -- IRetunable ------------------------------------------------------------
  // A manual retune overrides the live cache until the duel's next
  // migration (the tuner keeps dueling regardless).
  bool retune(int new_precision) override {
    return live_.retune(new_precision);
  }
  [[nodiscard]] int precision() const override { return live_.precision(); }
  [[nodiscard]] std::uint64_t retune_count() const override {
    return live_.retune_count();
  }

  [[nodiscard]] const SharedAutoTuner& tuner() const noexcept {
    return *shared_tuner_;
  }
  [[nodiscard]] const CampCache& live() const noexcept { return live_; }

 private:
  /// Catch up with migrations other shards (or this one) triggered.
  void apply_pending_retune();

  CampCache live_;
  // Not `tuner_`: that name is SharedAutoTuner's guarded field, and the
  // check_lock_order field grep scans this whole translation unit.
  std::shared_ptr<SharedAutoTuner> shared_tuner_;
  std::uint64_t seen_epoch_ = 0;
};

/// Standalone self-tuning CAMP: one live cache, its own tuner.
[[nodiscard]] std::unique_ptr<policy::ICache> make_self_tuning_camp(
    CampConfig config, AutoTunerConfig tuner_config);

}  // namespace camp::core
