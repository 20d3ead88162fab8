// Differential property test for hash partitioning: the SAME random
// batched op stream (fixed seeds) executed against a KvsStore (slab-backed
// engines) at 1, 4 and 7 shards, driven through the batched InprocClient
// transport, must produce identical per-key results and identical
// aggregate hit/miss totals — sharding is a concurrency layout, never a
// semantic change.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kvs/api.h"
#include "kvs/inproc.h"
#include "kvs/store.h"
#include "policy/lru.h"
#include "util/clock.h"
#include "util/rng.h"

namespace camp {
namespace {

kvs::KvsBatch random_batch(util::Xoshiro256& rng, std::size_t ops) {
  kvs::KvsBatch batch;
  for (std::size_t i = 0; i < ops; ++i) {
    const std::string key = "key-" + std::to_string(rng.below(400));
    const std::uint64_t roll = rng.below(10);
    if (roll < 5) {
      batch.add_iqget(key);
    } else if (roll < 6) {
      batch.add_get(key);
    } else if (roll < 9) {
      batch.add_set(key, std::string(64 + rng.below(1024), 'v'),
                    static_cast<std::uint32_t>(rng.below(16)),
                    static_cast<std::uint32_t>(1 + rng.below(10'000)));
    } else {
      batch.add_del(key);
    }
  }
  return batch;
}

struct StoreReplay {
  std::vector<bool> oks;
  std::vector<std::string> values;
  kvs::EngineStats stats;
};

StoreReplay replay_store(std::size_t shards, std::uint64_t seed) {
  static const util::ManualClock clock;
  kvs::StoreConfig config;
  config.shards = shards;
  config.engine.slab.memory_limit_bytes = 256u << 20;  // never evicts
  kvs::KvsStore store(config, [](std::uint64_t cap) {
    return std::make_unique<policy::LruCache>(cap);
  }, clock);
  kvs::InprocClient client(store);

  util::Xoshiro256 rng(seed);
  StoreReplay replay;
  for (int b = 0; b < 60; ++b) {
    const kvs::KvsBatch batch = random_batch(rng, 32);
    const kvs::KvsBatchResult result = client.execute(batch);
    EXPECT_EQ(result.size(), batch.size());
    for (std::size_t i = 0; i < result.size(); ++i) {
      replay.oks.push_back(result[i].ok);
      replay.values.push_back(result[i].value);
    }
  }
  replay.stats = store.aggregated_stats();
  return replay;
}

TEST(KvsShardEquivalenceTest, StoreBatchesMatchSingleShardEngine) {
  for (const std::uint64_t seed : {3u, 2014u}) {
    const StoreReplay want = replay_store(/*shards=*/1, seed);
    ASSERT_GT(want.stats.gets, 0u);
    ASSERT_GT(want.stats.hits, 0u) << "stream must exercise hits";
    ASSERT_GT(want.stats.sets, 0u);

    for (const std::size_t shards : {4u, 7u}) {
      const StoreReplay got = replay_store(shards, seed);
      EXPECT_EQ(want.oks, got.oks) << "shards=" << shards;
      EXPECT_EQ(want.values, got.values) << "shards=" << shards;
      EXPECT_EQ(want.stats.gets, got.stats.gets) << "shards=" << shards;
      EXPECT_EQ(want.stats.hits, got.stats.hits) << "shards=" << shards;
      EXPECT_EQ(want.stats.sets, got.stats.sets) << "shards=" << shards;
      EXPECT_EQ(want.stats.deletes, got.stats.deletes)
          << "shards=" << shards;
      EXPECT_EQ(want.stats.items, got.stats.items) << "shards=" << shards;
      EXPECT_EQ(want.stats.value_bytes, got.stats.value_bytes)
          << "shards=" << shards;
      EXPECT_EQ(got.stats.rejected_sets, 0u) << "shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace camp
