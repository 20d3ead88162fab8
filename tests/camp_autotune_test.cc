// Self-tuning CAMP (core/auto_tuner.h): config validation, the sampled
// shadow duel's exact decision rules (winner/tie/psel/migration), the
// replayable trace ledger, thread-safe sharing across shards, and the
// store-level plumbing. The determinism tests pin the property the design
// leans on: the psel trace is a pure function of the observed
// (key, size, cost) stream — identical across runs AND shard counts.
#include "core/auto_tuner.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/camp.h"
#include "kvs/store.h"
#include "policy/policy_factory.h"
#include "trace/workloads.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/rounding.h"

namespace camp::core {
namespace {

// A tiny duel config where every key is sampled and windows close fast, so
// unit tests can script exact window/psel/migration sequences.
AutoTunerConfig scripted(std::vector<int> candidates, int initial,
                         std::uint32_t window, std::int32_t threshold) {
  AutoTunerConfig c;
  c.candidates = std::move(candidates);
  c.initial_precision = initial;
  c.sample_shift = 0;  // sample everything
  c.window_samples = window;
  c.psel_threshold = threshold;
  return c;
}

TEST(AutoTunerConfig, ValidateRejectsNonsense) {
  EXPECT_NO_THROW(AutoTunerConfig{}.validate());

  AutoTunerConfig c;
  c.candidates.clear();
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = AutoTunerConfig{};
  c.candidates = {1, 0};
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = AutoTunerConfig{};
  c.candidates = {2, 5, 2};
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = AutoTunerConfig{};
  c.initial_precision = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = AutoTunerConfig{};
  c.sample_shift = 33;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = AutoTunerConfig{};
  c.window_samples = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = AutoTunerConfig{};
  c.psel_threshold = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(AutoTuner, SamplingIsAPureFunctionOfKeyAndSalt) {
  AutoTunerConfig config;
  config.sample_shift = 3;  // expect ~1/8 of keys
  const AutoTuner a(config, 1 << 20);
  const AutoTuner b(config, 1 << 10);  // capacity must not matter

  int sampled = 0;
  for (policy::Key k = 0; k < 8192; ++k) {
    EXPECT_EQ(a.is_sampled(k), b.is_sampled(k));
    sampled += a.is_sampled(k) ? 1 : 0;
  }
  // Loose bounds around 8192/8 = 1024: mix64 is a good scrambler.
  EXPECT_GT(sampled, 700);
  EXPECT_LT(sampled, 1400);

  config.salt ^= 0x1234567;
  const AutoTuner salted(config, 1 << 20);
  bool any_difference = false;
  for (policy::Key k = 0; k < 8192 && !any_difference; ++k) {
    any_difference = a.is_sampled(k) != salted.is_sampled(k);
  }
  EXPECT_TRUE(any_difference);
}

TEST(AutoTuner, CountsOpsAndSampledSeparately) {
  AutoTunerConfig config;
  config.sample_shift = 2;
  AutoTuner tuner(config, 1 << 20);
  std::uint64_t expect_sampled = 0;
  for (policy::Key k = 0; k < 1000; ++k) {
    if (tuner.is_sampled(k)) ++expect_sampled;
    tuner.observe(k, 64, 1);
  }
  EXPECT_EQ(tuner.counters().ops, 1000u);
  EXPECT_EQ(tuner.counters().sampled, expect_sampled);
  EXPECT_GT(expect_sampled, 0u);
  EXPECT_LT(expect_sampled, 1000u);
}

TEST(AutoTuner, WindowTiePrefersTheIncumbent) {
  // Identical shadow streams give every candidate the same missed cost:
  // the tie must go to the incumbent (index 1 here), never migrate, and
  // decay everyone else's psel.
  AutoTuner tuner(scripted({1, 5, 64}, /*initial=*/5, /*window=*/4,
                           /*threshold=*/2),
                  1 << 20);
  for (policy::Key k = 1; k <= 4; ++k) {
    EXPECT_EQ(tuner.observe(k, 64, 10), std::nullopt);
  }
  const AutoTunerCounters& c = tuner.counters();
  EXPECT_EQ(c.windows, 1u);
  EXPECT_EQ(c.retunes, 0u);
  EXPECT_EQ(c.window_wins, (std::vector<std::uint64_t>{0, 1, 0}));
  EXPECT_EQ(c.psel, (std::vector<std::int64_t>{0, 1, 0}));
  EXPECT_EQ(tuner.trace(), "w1:p5;");
  EXPECT_EQ(tuner.current_precision(), 5);
}

TEST(AutoTuner, MigratesAtThresholdAndResetsPsel) {
  // One challenger, an initial setting outside the candidate set: the
  // challenger wins every window and must migrate exactly when its psel
  // reaches the threshold — on the access that closes window 3.
  AutoTuner tuner(scripted({2}, /*initial=*/5, /*window=*/2, /*threshold=*/3),
                  1 << 20);
  for (policy::Key k = 1; k <= 5; ++k) {
    EXPECT_EQ(tuner.observe(k, 64, 10), std::nullopt);
  }
  EXPECT_EQ(tuner.observe(6, 64, 10), std::optional<int>(2));

  EXPECT_EQ(tuner.current_precision(), 2);
  const AutoTunerCounters& c = tuner.counters();
  EXPECT_EQ(c.windows, 3u);
  EXPECT_EQ(c.retunes, 1u);
  EXPECT_EQ(c.psel, (std::vector<std::int64_t>{0}));  // reset on migration
  ASSERT_EQ(tuner.decisions().size(), 1u);
  EXPECT_EQ(tuner.decisions()[0].sampled_ops, 6u);
  EXPECT_EQ(tuner.decisions()[0].from, 5);
  EXPECT_EQ(tuner.decisions()[0].to, 2);
  EXPECT_EQ(tuner.trace(), "w1:p2;w2:p2;w3:p2;w3>p2;");

  // Once migrated, the winner IS the incumbent: windows keep closing but
  // no further migration fires.
  EXPECT_EQ(tuner.observe(7, 64, 10), std::nullopt);
  EXPECT_EQ(tuner.observe(8, 64, 10), std::nullopt);
  EXPECT_EQ(tuner.counters().windows, 4u);
  EXPECT_EQ(tuner.counters().retunes, 1u);
  EXPECT_EQ(tuner.trace(), "w1:p2;w2:p2;w3:p2;w3>p2;w4:p2;");
}

TEST(AutoTuner, ZeroSizedPairsAreChargedButNotAdmitted) {
  // size == 0 means "metadata unavailable": the window is still charged
  // (the access missed) but the shadow cannot admit the pair, so the same
  // key misses again.
  AutoTuner tuner(scripted({5}, 5, /*window=*/8, /*threshold=*/2), 1 << 20);
  tuner.observe(42, 0, 7);
  tuner.observe(42, 0, 7);
  EXPECT_EQ(tuner.counters().shadow_misses[0], 2u);
  EXPECT_EQ(tuner.counters().shadow_hits[0], 0u);

  // A real pair is admitted and hits on re-reference.
  tuner.observe(43, 64, 7);
  tuner.observe(43, 64, 7);
  EXPECT_EQ(tuner.counters().shadow_hits[0], 1u);
}

TEST(AutoTuner, ShadowsPreferKeepingExpensiveKeys) {
  // The shadows are real CAMP caches: with equal sizes, a precision-64
  // shadow keeps the high-cost key under pressure. This pins that the duel
  // is fed by genuine cost-aware decisions, not hit counting.
  AutoTunerConfig config = scripted({util::kPrecisionInfinity}, 5,
                                    /*window=*/1024, /*threshold=*/4);
  config.shadow_capacity_bytes = 2 * 64;  // room for two pairs
  AutoTuner tuner(config, 1 << 20);
  tuner.observe(1, 64, 10'000);  // expensive resident
  for (policy::Key k = 100; k < 120; ++k) {
    tuner.observe(k, 64, 1);  // cheap churn evicts other cheap keys
  }
  tuner.observe(1, 64, 10'000);
  EXPECT_GE(tuner.counters().shadow_hits[0], 1u);
}

TEST(SharedAutoTuner, RegisterAfterTrafficThrows) {
  SharedAutoTuner shared(scripted({2}, 5, 4, 1));
  shared.register_capacity(1 << 20);
  shared.register_capacity(1 << 20);  // pre-traffic: fine
  shared.observe(1, 64, 1);
  EXPECT_THROW(shared.register_capacity(1 << 20), std::logic_error);
}

TEST(SharedAutoTuner, EpochBumpsOncePerMigration) {
  // threshold=1, window=1, single challenger: the very first sampled
  // access migrates 5 -> 2 and bumps the epoch exactly once.
  SharedAutoTuner shared(scripted({2}, 5, /*window=*/1, /*threshold=*/1));
  shared.register_capacity(1 << 20);
  EXPECT_EQ(shared.epoch(), 0u);
  shared.observe(1, 64, 1);
  EXPECT_EQ(shared.epoch(), 1u);
  EXPECT_EQ(shared.current_precision(), 2);
  shared.observe(2, 64, 1);  // winner == incumbent now: no bump
  EXPECT_EQ(shared.epoch(), 1u);
  EXPECT_EQ(shared.counters().retunes, 1u);
}

TEST(SelfTuningCampCache, AppliesMigrationLazilyAndRenames) {
  CampConfig config;
  config.capacity_bytes = 1 << 20;
  auto cache = make_self_tuning_camp(
      config, scripted({2}, /*initial=*/5, /*window=*/4, /*threshold=*/1));
  auto* self = dynamic_cast<SelfTuningCampCache*>(cache.get());
  ASSERT_NE(self, nullptr);
  EXPECT_EQ(cache->name(), "camp-auto(p=5)");
  EXPECT_EQ(self->precision(), 5);

  // Four puts close window 1 and migrate the tuner; the LIVE cache only
  // catches up on the next operation (observe and mutate phases are
  // strictly ordered).
  for (policy::Key k = 1; k <= 4; ++k) {
    cache->put(k, 64, 1);
  }
  EXPECT_EQ(self->tuner().counters().retunes, 1u);
  EXPECT_EQ(self->precision(), 5);  // not applied yet
  EXPECT_TRUE(cache->get(1));       // applies the pending retune
  EXPECT_EQ(self->precision(), 2);
  EXPECT_EQ(cache->name(), "camp-auto(p=2)");
  EXPECT_GE(self->retune_count(), 1u);
  // The resident set survived the in-place rebuild.
  for (policy::Key k = 1; k <= 4; ++k) {
    EXPECT_TRUE(cache->contains(k));
  }
}

// ---------------------------------------------------------------------------
// Determinism: the psel trace is a pure function of the observed stream.
// ---------------------------------------------------------------------------

struct DuelLedger {
  std::string trace;
  std::uint64_t sampled = 0;
  std::uint64_t windows = 0;
  std::uint64_t retunes = 0;
  std::vector<std::int64_t> psel;
  int precision = 0;
};

// Drives `records` through `shards` caches built by ONE "camp:p=auto"
// shared-tuner factory, routing each key by hash (the way KvsStore
// partitions its engines), using the simulator protocol (get; on miss,
// put), and returns the duel's ledger. KvsStore itself is not used here:
// there a get miss followed by a set would feed the tuner twice.
DuelLedger run_sharded_duel(const std::vector<trace::TraceRecord>& records,
                            std::size_t shards) {
  const auto factory = policy::make_policy_factory("camp:p=auto");
  constexpr std::uint64_t kCapacity = 8u << 20;
  std::vector<std::unique_ptr<policy::ICache>> caches;
  for (std::size_t i = 0; i < shards; ++i) {
    caches.push_back(factory(kCapacity / shards));
  }
  // A 1-byte probe shard gives the test a handle on the shared tuner; it
  // must be built before traffic starts (register_capacity would throw
  // later), and its byte vanishes in the >> sample_shift shadow scaling.
  const auto probe = factory(1);
  const auto* self = dynamic_cast<const SelfTuningCampCache*>(probe.get());
  EXPECT_NE(self, nullptr);

  for (const trace::TraceRecord& r : records) {
    policy::ICache& cache = *caches[util::mix64(r.key) % shards];
    if (!cache.get(r.key)) {
      cache.put(r.key, r.size, r.cost);
    }
  }
  const SharedAutoTuner& tuner = self->tuner();
  DuelLedger ledger;
  ledger.trace = tuner.trace();
  const AutoTunerCounters counters = tuner.counters();
  ledger.sampled = counters.sampled;
  ledger.windows = counters.windows;
  ledger.retunes = counters.retunes;
  ledger.psel = counters.psel;
  ledger.precision = tuner.current_precision();
  return ledger;
}

TEST(AutoTunerDeterminism, TraceIsIdenticalAcrossRunsAndShardCounts) {
  trace::WorkloadConfig workload = trace::bg_default(2'000, 30'000, 7);
  const std::vector<trace::TraceRecord> records =
      trace::TraceGenerator(workload).generate();

  const DuelLedger one = run_sharded_duel(records, 1);
  const DuelLedger one_again = run_sharded_duel(records, 1);
  const DuelLedger four = run_sharded_duel(records, 4);

  // The duel actually ran (windows closed on sampled traffic).
  EXPECT_GT(one.sampled, 0u);
  EXPECT_GT(one.windows, 0u);

  // Run-to-run: byte-identical ledger.
  EXPECT_EQ(one.trace, one_again.trace);
  EXPECT_EQ(one.psel, one_again.psel);
  EXPECT_EQ(one.sampled, one_again.sampled);

  // Shard-count invariance: hits and misses land on different shards, but
  // the observed (key, size, cost) stream — and so the whole duel — is
  // identical.
  EXPECT_EQ(one.trace, four.trace);
  EXPECT_EQ(one.psel, four.psel);
  EXPECT_EQ(one.sampled, four.sampled);
  EXPECT_EQ(one.windows, four.windows);
  EXPECT_EQ(one.retunes, four.retunes);
  EXPECT_EQ(one.precision, four.precision);
}

// ---------------------------------------------------------------------------
// Adaptation quality: auto tracks the best static setting per phase.
// ---------------------------------------------------------------------------

struct PhaseCosts {
  std::vector<double> cost_miss_ratio;  // one per phase
};

// Simulator protocol with per-phase non-cold cost accounting (cold misses
// are compulsory for every policy, so they are excluded — same rule as
// sim/simulator.cc).
PhaseCosts drive_phases(policy::ICache& cache,
                        const std::vector<std::vector<trace::TraceRecord>>&
                            phases) {
  PhaseCosts out;
  std::unordered_set<policy::Key> seen;
  for (const auto& records : phases) {
    double total = 0;
    double missed = 0;
    for (const trace::TraceRecord& r : records) {
      const bool cold = seen.insert(r.key).second;
      if (!cold) total += r.cost;
      if (!cache.get(r.key)) {
        if (!cold) missed += r.cost;
        cache.put(r.key, r.size, r.cost);
      }
    }
    out.cost_miss_ratio.push_back(total > 0 ? missed / total : 0.0);
  }
  return out;
}

TEST(AutoTunerAdaptation, MatchesBestStaticPerPhase) {
  // Three phases over disjoint key spaces, differing only in cost model —
  // the same shape as the fig_autotune figure, scaled down for CI. The
  // best static precision shifts between phases; camp-auto must be within
  // tolerance of the per-phase winner in at least 2 of 3 phases.
  constexpr std::uint64_t kKeys = 2'000;
  constexpr std::uint64_t kRequests = 25'000;
  const std::vector<trace::CostModel> cost_models = {
      trace::CostModel::choice({1, 100, 10'000}),
      trace::CostModel::fixed(1),
      trace::CostModel::log_normal(4.6, 2.0, 1, 100'000),
  };
  std::vector<std::vector<trace::TraceRecord>> phases;
  std::uint64_t unique_bytes = 0;
  for (std::size_t phase = 0; phase < cost_models.size(); ++phase) {
    trace::WorkloadConfig w = trace::bg_default(kKeys, kRequests, 2014);
    w.cost_model = cost_models[phase];
    w.seed += phase * 1'000'003;
    w.trace_id = static_cast<std::uint32_t>(phase);
    w.key_namespace = phase * (kKeys + 1);
    trace::TraceGenerator gen(w);
    if (phase == 0) unique_bytes = gen.unique_bytes();
    phases.push_back(gen.generate());
  }
  const auto capacity =
      static_cast<std::uint64_t>(0.2 * static_cast<double>(unique_bytes));

  const std::vector<int> statics = {1, 2, 5, util::kPrecisionInfinity};
  std::vector<PhaseCosts> static_costs;
  for (const int p : statics) {
    CampConfig config;
    config.capacity_bytes = capacity;
    config.precision = p;
    CampCache cache(config);
    static_costs.push_back(drive_phases(cache, phases));
  }

  CampConfig config;
  config.capacity_bytes = capacity;
  AutoTunerConfig tuner_config;  // default candidates {1, 2, 5, inf}
  tuner_config.sample_shift = 4;    // denser sampling at this small scale
  tuner_config.window_samples = 128;
  auto auto_cache = make_self_tuning_camp(config, tuner_config);
  const PhaseCosts auto_costs = drive_phases(*auto_cache, phases);

  const auto* self =
      dynamic_cast<const SelfTuningCampCache*>(auto_cache.get());
  ASSERT_NE(self, nullptr);
  EXPECT_GT(self->tuner().counters().windows, 0u);

  int phases_matched = 0;
  for (std::size_t phase = 0; phase < phases.size(); ++phase) {
    double best = static_costs[0].cost_miss_ratio[phase];
    for (const PhaseCosts& s : static_costs) {
      best = std::min(best, s.cost_miss_ratio[phase]);
    }
    const double a = auto_costs.cost_miss_ratio[phase];
    if (a <= best * 1.05 + 0.005) ++phases_matched;
  }
  EXPECT_GE(phases_matched, 2)
      << "auto: " << auto_costs.cost_miss_ratio[0] << " "
      << auto_costs.cost_miss_ratio[1] << " "
      << auto_costs.cost_miss_ratio[2];
}

// ---------------------------------------------------------------------------
// Store-level plumbing (kvs::KvsStore autotune).
// ---------------------------------------------------------------------------

kvs::StoreConfig autotune_store_config(std::size_t shards) {
  kvs::StoreConfig c;
  c.shards = shards;
  c.engine.slab.memory_limit_bytes = 8u << 20;
  c.engine.slab.slab_size_bytes = 1u << 20;
  c.autotune = scripted({2}, /*initial=*/5, /*window=*/4, /*threshold=*/1);
  return c;
}

kvs::PolicyFactory camp_factory(int precision) {
  return [precision](std::uint64_t cap) {
    CampConfig config;
    config.capacity_bytes = cap;
    config.precision = precision;
    return make_camp(config);
  };
}

TEST(StoreAutotune, AccessorsRequireAutotune) {
  util::ManualClock clock;
  kvs::StoreConfig plain = autotune_store_config(2);
  plain.autotune.reset();
  kvs::KvsStore store(plain, camp_factory(5), clock);
  EXPECT_FALSE(store.autotune_enabled());
  EXPECT_THROW((void)store.autotune_counters(), std::logic_error);
  EXPECT_THROW((void)store.autotune_precision(), std::logic_error);
  EXPECT_THROW((void)store.autotune_candidates(), std::logic_error);
}

TEST(StoreAutotune, DuelMigratesEveryShardPolicy) {
  util::ManualClock clock;
  kvs::KvsStore store(autotune_store_config(2), camp_factory(5), clock);
  EXPECT_TRUE(store.autotune_enabled());
  EXPECT_EQ(store.autotune_candidates(), std::vector<int>{2});
  ASSERT_EQ(store.policy_precision(), std::optional<int>(5));

  // Every successful set observes once; window=4, threshold=1, single
  // challenger: the duel migrates to p=2 within the first window and each
  // shard retunes lazily as its own traffic arrives.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(store.set("key" + std::to_string(i), "value", 0, 3));
  }
  const AutoTunerCounters counters = store.autotune_counters();
  EXPECT_EQ(counters.ops, 64u);
  EXPECT_EQ(counters.retunes, 1u);
  EXPECT_EQ(store.autotune_precision(), 2);
  // 64 keys over 2 shards: both shards saw post-migration traffic, so the
  // live policies have caught up.
  EXPECT_EQ(store.policy_precision(), std::optional<int>(2));
  EXPECT_EQ(store.policy_name(), "camp(p=2)");

  // Hits feed the duel too.
  EXPECT_TRUE(store.get("key0").hit);
  EXPECT_EQ(store.autotune_counters().ops, 65u);
}

TEST(StoreAutotune, NonRetunablePolicyStillDuelsWithoutRetuning) {
  // The tuner runs regardless; retune application is a no-op for policies
  // that are not IRetunable (policy_precision reports nullopt).
  util::ManualClock clock;
  kvs::StoreConfig config = autotune_store_config(2);
  kvs::KvsStore store(config, policy::make_policy_factory("lru"), clock);
  EXPECT_TRUE(store.autotune_enabled());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(store.set("key" + std::to_string(i), "value", 0, 3));
  }
  EXPECT_GE(store.autotune_counters().retunes, 1u);
  EXPECT_EQ(store.policy_precision(), std::nullopt);
}

}  // namespace
}  // namespace camp::core
