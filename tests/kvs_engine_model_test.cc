// Seeded reference-model test for KvsEngine: a random stream of set,
// overwrite, del, get, iqget/iqset, TTL expiry (ManualClock), pressure
// eviction, slab reassignment and flush_all runs against a std::map that
// mirrors what must be resident. The engine's eviction hook tells the model
// which pairs pressure dropped; every other removal is the model's own
// doing. KvsEngine::check_invariants (both indexes, the item pool, the
// policy's item count and the byte totals) runs every few operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

#include "core/camp.h"
#include "kvs/compress.h"
#include "kvs/engine.h"
#include "policy/lru.h"
#include "util/rng.h"

namespace camp::kvs {
namespace {

struct ModelPair {
  std::string value;
  std::uint32_t flags = 0;
  std::uint64_t expiry_ns = 0;  // 0 = never
};

using Model = std::map<std::string, ModelPair, std::less<>>;

bool live(const ModelPair& p, std::uint64_t now) {
  return p.expiry_ns == 0 || now < p.expiry_ns;
}

PolicyFactory factory_for(bool use_camp) {
  if (use_camp) {
    return [](std::uint64_t cap) {
      core::CampConfig config;
      config.capacity_bytes = cap;
      config.precision = 5;
      return core::make_camp(config);
    };
  }
  return [](std::uint64_t cap) {
    return std::make_unique<policy::LruCache>(cap);
  };
}

/// A value of `size` bytes: a run of one letter (compressible) or
/// rng-driven bytes (the codecs bail to identity).
std::string make_value(util::Xoshiro256& rng, std::size_t size) {
  std::string v(size, static_cast<char>('a' + rng.below(26)));
  if (rng.below(2) == 0) {
    for (char& c : v) c = static_cast<char>(rng.below(256));
  }
  return v;
}

/// The resident value of an ItemView, decoded to its client-visible form.
std::string raw_of(const ItemView& item) {
  if (item.codec == Codec::kIdentity) return std::string(item.stored);
  std::string out;
  EXPECT_TRUE(
      decompress_value(item.codec, item.stored, item.raw_len, out));
  return out;
}

/// The resident, unexpired pairs are exactly the model's live pairs.
void expect_matches_model(const KvsEngine& engine, const Model& model,
                          std::uint64_t now) {
  std::size_t live_in_model = 0;
  for (const auto& [key, pair] : model) {
    if (!live(pair, now)) continue;
    ++live_in_model;
    EXPECT_TRUE(engine.contains(key)) << key;
  }
  std::size_t walked = 0;
  engine.for_each_item([&](const ItemView& item) {
    ++walked;
    const auto it = model.find(item.key);
    ASSERT_NE(it, model.end()) << "resident pair unknown to the model: "
                               << item.key;
    EXPECT_EQ(raw_of(item), it->second.value) << item.key;
    EXPECT_EQ(item.flags, it->second.flags) << item.key;
  });
  EXPECT_EQ(walked, live_in_model);
}

class EngineModel
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(EngineModel, MatchesAStdMapUnderEveryKindOfRemoval) {
  const auto [use_camp, compress] = GetParam();
  util::ManualClock clock;
  clock.set_ns(1'000'000'000ull);
  EngineConfig config;
  // Sixteen 64 KiB slabs: the small-value phases fit every key, the
  // large-value phases need more classes than there are slabs.
  config.slab.memory_limit_bytes = 1u << 20;
  config.slab.slab_size_bytes = 64u << 10;
  config.compression.enabled = compress;
  KvsEngine engine(config, factory_for(use_camp), clock);

  Model model;
  std::uint64_t hook_drops = 0;
  engine.set_eviction_hook([&](const EvictedItem& evicted) {
    ++hook_drops;
    const auto it = model.find(evicted.key);
    ASSERT_NE(it, model.end()) << "evicted an unknown pair";
    EXPECT_TRUE(live(it->second, clock.now_ns()))
        << "the hook never sees a lapsed pair";
    model.erase(it);
  });

  util::Xoshiro256 rng(0xCA3Dull + (use_camp ? 2 : 0) + (compress ? 1 : 0));
  constexpr int kOps = 33'000;  // ends in a small-value phase
  constexpr int kCheckEvery = 64;
  for (int op = 0; op < kOps; ++op) {
    clock.advance_ns(rng.below(20'000'000));  // up to 20 ms per op
    const std::uint64_t now = clock.now_ns();
    const std::string key = "key" + std::to_string(rng.below(600));
    // The value-size mix moves between phases so slab classes starve and
    // reassignment kicks in.
    const std::size_t max_size = (op / 5'000) % 2 == 0 ? 300 : 6'000;
    const std::uint64_t roll = rng.below(100);

    if (roll < 40) {
      const std::string value = make_value(rng, 1 + rng.below(max_size));
      const auto flags = static_cast<std::uint32_t>(rng.below(1000));
      const std::uint32_t exptime =
          rng.below(4) == 0 ? static_cast<std::uint32_t>(1 + rng.below(5))
                            : 0;
      if (engine.set(key, value, flags, 1 + rng.below(10'000), exptime)) {
        model[key] = ModelPair{
            value, flags,
            exptime == 0 ? 0 : now + exptime * 1'000'000'000ull};
        EXPECT_TRUE(engine.contains(key));
      } else {
        // Only the policy or the allocator can refuse a valid key and a
        // value that fits a slab, and by then the old copy is gone.
        model.erase(key);
        EXPECT_FALSE(engine.contains(key));
      }
    } else if (roll < 75) {
      const GetResult r = engine.get(key);
      const auto it = model.find(key);
      const bool want = it != model.end() && live(it->second, now);
      ASSERT_EQ(r.hit, want) << "op " << op << " key " << key;
      if (want) {
        EXPECT_EQ(r.value, it->second.value);
        EXPECT_EQ(r.flags, it->second.flags);
      } else if (it != model.end()) {
        model.erase(it);  // lazily expired by this get
      }
    } else if (roll < 85) {
      const GetResult r = engine.iqget(key);
      const auto it = model.find(key);
      const bool want = it != model.end() && live(it->second, now);
      ASSERT_EQ(r.hit, want) << "op " << op << " key " << key;
      if (!want) {
        if (it != model.end()) model.erase(it);
        // The iqset that fills the miss comes a little later; its cost is
        // the elapsed time in microseconds.
        clock.advance_ns(rng.below(5'000'000));
        const std::string value = make_value(rng, 1 + rng.below(max_size));
        if (engine.iqset(key, value, 7)) {
          const std::uint64_t elapsed_us = (clock.now_ns() - now) / 1000;
          EXPECT_EQ(engine.cost_of(key),
                    std::max<std::uint64_t>(1, elapsed_us));
          model[key] = ModelPair{value, 7, 0};
        }
      }
    } else if (roll < 97) {
      const auto it = model.find(key);
      const bool deleted = engine.del(key);
      if (it == model.end()) {
        EXPECT_FALSE(deleted) << key;
      } else {
        // A lapsed pair deletes too, unless pressure already dropped it
        // (silently: the hook skips lapsed pairs).
        if (live(it->second, now)) {
          EXPECT_TRUE(deleted) << key;
        }
        model.erase(it);
      }
    } else if (rng.below(50) == 0) {
      engine.flush_all();
      model.clear();
      EXPECT_EQ(engine.stats().items, 0u);
    }

    if (op % kCheckEvery == 0) {
      ASSERT_TRUE(engine.check_invariants()) << "op " << op;
      expect_matches_model(engine, model, clock.now_ns());
    }
  }
  ASSERT_TRUE(engine.check_invariants());
  expect_matches_model(engine, model, clock.now_ns());

  // The stream must have exercised every removal path it claims to.
  const EngineStats& s = engine.stats();
  EXPECT_GT(engine.policy_stats().evictions, 0u);
  EXPECT_GT(hook_drops, 0u);
  EXPECT_GT(s.slab_reassignments, 0u);
  EXPECT_GT(s.expired, 0u);
  EXPECT_GT(s.deletes, 0u);
  if (compress) {
    EXPECT_GT(s.compress_bails, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyAndCompression, EngineModel,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "Camp" : "Lru") +
             (std::get<1>(info.param) ? "Compressed" : "Identity");
    });

}  // namespace
}  // namespace camp::kvs
