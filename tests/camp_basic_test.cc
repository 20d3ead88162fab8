// Behavioral unit tests for the CAMP cache: GDS semantics (Algorithm 1),
// queue management, and the worked example from the paper's Figures 1-3.
#include "core/camp.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace camp::core {
namespace {

CampConfig cfg(std::uint64_t capacity, int precision = 5) {
  CampConfig c;
  c.capacity_bytes = capacity;
  c.precision = precision;
  return c;
}

TEST(Camp, RejectsBadConfig) {
  EXPECT_THROW(CampCache(cfg(0)), std::invalid_argument);
  EXPECT_THROW(CampCache(cfg(100, 0)), std::invalid_argument);
}

TEST(Camp, MissThenInsertThenHit) {
  CampCache cache(cfg(1000));
  EXPECT_FALSE(cache.get(1));
  EXPECT_TRUE(cache.put(1, 100, 10));
  EXPECT_TRUE(cache.get(1));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.item_count(), 1u);
  EXPECT_EQ(cache.used_bytes(), 100u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Camp, RejectsOversizedAndZeroSized) {
  CampCache cache(cfg(1000));
  EXPECT_FALSE(cache.put(1, 1001, 1));
  EXPECT_FALSE(cache.put(2, 0, 1));
  EXPECT_EQ(cache.stats().rejected_puts, 2u);
  EXPECT_EQ(cache.item_count(), 0u);
}

TEST(Camp, EvictsLowestPriorityFirst) {
  // Equal sizes; costs differ wildly. The cheap pair must go first.
  CampCache cache(cfg(300, util::kPrecisionInfinity));
  cache.put(1, 100, 1);       // cheap
  cache.put(2, 100, 10'000);  // expensive
  cache.put(3, 100, 100);     // middling
  ASSERT_EQ(cache.item_count(), 3u);
  EXPECT_EQ(cache.peek_victim(), std::optional<policy::Key>(1));
  cache.put(4, 100, 100);  // forces one eviction
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Camp, SizeMattersEqualCost) {
  // Equal costs; priorities follow cost/size, so the big pair is cheapest
  // per byte and goes first.
  CampCache cache(cfg(1000, util::kPrecisionInfinity));
  cache.put(1, 500, 100);  // ratio 100/500
  cache.put(2, 100, 100);  // ratio 100/100
  cache.put(3, 300, 100);
  cache.put(4, 200, 100);  // 1100 > 1000 -> evict
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(Camp, LruTieBreakWithinQueue) {
  // Same cost and size -> same queue; LRU order must break the tie.
  CampCache cache(cfg(300));
  cache.put(1, 100, 50);
  cache.put(2, 100, 50);
  cache.put(3, 100, 50);
  ASSERT_TRUE(cache.get(1));  // 1 becomes MRU; 2 is now the LRU victim
  cache.put(4, 100, 50);
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
}

TEST(Camp, HitRefreshesPriority) {
  CampCache cache(cfg(200, util::kPrecisionInfinity));
  cache.put(1, 100, 10);
  cache.put(2, 100, 10);
  const auto h_before = cache.priority_of(1);
  // Touch 1 repeatedly while 2 idles; 1's H is L + ratio each time.
  ASSERT_TRUE(cache.get(1));
  EXPECT_GE(cache.priority_of(1), h_before);
  cache.put(3, 100, 10);  // evicts 2, the least recently used
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
}

TEST(Camp, InflationNeverDecreases) {
  CampCache cache(cfg(300));
  std::uint64_t last = 0;
  util::SplitMix64 rng(3);
  for (int i = 0; i < 500; ++i) {
    const policy::Key k = rng.next() % 20;
    if (!cache.get(k)) {
      cache.put(k, 50 + rng.next() % 50, 1 + rng.next() % 100);
    }
    EXPECT_GE(cache.inflation(), last);
    last = cache.inflation();
  }
}

TEST(Camp, PropositionOneBounds) {
  // L <= H(p) <= L + ratio(p) for every resident pair (checked inside
  // check_invariants; exercise a workload and assert).
  CampCache cache(cfg(500));
  util::SplitMix64 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const policy::Key k = rng.next() % 30;
    if (!cache.get(k)) {
      cache.put(k, 20 + rng.next() % 100, 1 + rng.next() % 10'000);
    }
  }
  EXPECT_TRUE(cache.check_invariants());
}

TEST(Camp, QueuesGroupByRoundedRatio) {
  CampCache cache(cfg(10'000, 5));
  // Two pairs with identical ratio share a queue.
  cache.put(1, 100, 10);
  cache.put(2, 100, 10);
  EXPECT_EQ(cache.queue_count(), 1u);
  EXPECT_EQ(cache.ratio_of(1), cache.ratio_of(2));
  // A wildly different ratio opens a second queue.
  cache.put(3, 100, 10'000);
  EXPECT_EQ(cache.queue_count(), 2u);
}

TEST(Camp, QueueDestroyedWhenEmptied) {
  CampCache cache(cfg(200));
  cache.put(1, 100, 1);
  cache.put(2, 100, 10'000);
  EXPECT_EQ(cache.queue_count(), 2u);
  cache.erase(1);
  EXPECT_EQ(cache.queue_count(), 1u);
  const auto intro = cache.introspect();
  EXPECT_EQ(intro.queues_created, 2u);
  EXPECT_EQ(intro.queues_destroyed, 1u);
}

TEST(Camp, OverwriteReplacesSizeAndCost) {
  CampCache cache(cfg(1000));
  cache.put(1, 100, 10);
  EXPECT_TRUE(cache.put(1, 400, 20));
  EXPECT_EQ(cache.item_count(), 1u);
  EXPECT_EQ(cache.used_bytes(), 400u);
}

TEST(Camp, EraseIsNotAnEviction) {
  CampCache cache(cfg(1000));
  cache.put(1, 100, 10);
  int evictions = 0;
  cache.set_eviction_listener(
      [&](policy::Key, std::uint64_t) { ++evictions; });
  cache.erase(1);
  EXPECT_EQ(evictions, 0);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(Camp, EvictionListenerFires) {
  CampCache cache(cfg(200));
  std::vector<std::pair<policy::Key, std::uint64_t>> evicted;
  cache.set_eviction_listener([&](policy::Key k, std::uint64_t s) {
    evicted.emplace_back(k, s);
  });
  cache.put(1, 150, 1);
  cache.put(2, 150, 1);  // evicts 1
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first, 1u);
  EXPECT_EQ(evicted[0].second, 150u);
}

TEST(Camp, OverwriteThatEvictsNeverVictimisesTheIncomingKey) {
  // An overwritten pair gives up its charge and its queue before the
  // eviction loop runs, so the loop can never pick it, and every listener
  // call sees a victim that is already gone. Key 1 is the cheapest pair,
  // so it would be the first victim if it were still queued.
  CampCache cache(cfg(1000, 5));
  for (policy::Key k = 1; k <= 10; ++k) cache.put(k, 100, k);
  std::vector<policy::Key> evicted;
  cache.set_eviction_listener([&](policy::Key k, std::uint64_t) {
    evicted.push_back(k);
    EXPECT_NE(k, 1u);
    EXPECT_FALSE(cache.contains(k));
  });
  ASSERT_TRUE(cache.put(1, 400, 1));  // 900 others + 400 > 1000: evicts 3
  EXPECT_EQ(evicted.size(), 3u);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.size_of(1), 400u);
  EXPECT_EQ(cache.item_count(), 7u);
  EXPECT_EQ(cache.used_bytes(), 1000u);
  EXPECT_TRUE(cache.check_invariants());
}

TEST(Camp, AgedExpensivePairEventuallyEvicted) {
  // The paper: "CAMP is robust enough to prevent an aged expensive
  // key-value pair from occupying memory indefinitely." A pair with a
  // cost-to-size ratio c times the churn's ratio survives roughly c
  // evictions (L must inflate past its H), then goes.
  CampCache cache(cfg(1000, 5));
  cache.put(999, 100, 2'000);  // 2000x the churn cost, never touched again
  util::SplitMix64 rng(9);
  int evicted_at = -1;
  for (int i = 0; i < 100'000 && evicted_at < 0; ++i) {
    const policy::Key k = rng.next() % 50;
    if (!cache.get(k)) cache.put(k, 100, 1);
    if (!cache.contains(999)) evicted_at = i;
  }
  EXPECT_GE(evicted_at, 0) << "expensive pair should age out as L inflates";
  EXPECT_GT(evicted_at, 500) << "but not before its cost premium is spent";
}

TEST(Camp, NameReflectsPrecision) {
  EXPECT_EQ(CampCache(cfg(10, 5)).name(), "camp(p=5)");
  EXPECT_EQ(CampCache(cfg(10, util::kPrecisionInfinity)).name(),
            "camp(p=inf)");
}

TEST(Camp, FactoryBuildsWorkingCache) {
  auto cache = make_camp(cfg(500));
  EXPECT_TRUE(cache->put(1, 100, 5));
  EXPECT_TRUE(cache->get(1));
  EXPECT_EQ(cache->capacity_bytes(), 500u);
}

TEST(Camp, PaperFigure3HitExample) {
  // Reconstructs the shape of the Figure 3 walk-through: a hit moves the
  // pair to the back of its queue and its H becomes L_min + ratio.
  CampCache cache(cfg(10'000, util::kPrecisionInfinity));
  // Build two queues: ratio-1 pairs (cheap) and ratio-2 pairs.
  cache.put(10, 100, 1);  // with max_size=100: ratio = 1*100/100 = 1
  cache.put(11, 100, 1);
  cache.put(20, 100, 2);  // ratio 2
  cache.put(21, 100, 2);
  ASSERT_EQ(cache.queue_count(), 2u);
  const auto h_g_before = cache.priority_of(20);  // head of ratio-2 queue
  ASSERT_TRUE(cache.get(20));                     // hit "g"
  // L is the global min priority (head of ratio-1 queue = 1); g's new
  // H = L + 2.
  EXPECT_EQ(cache.priority_of(20), cache.priority_of(10) + 2);
  EXPECT_GE(cache.priority_of(20), h_g_before);
  // g is now behind its queue-mate 21.
  cache.put(99, 100 * 98, 2);  // big insert forces evictions of lowest H
  EXPECT_TRUE(cache.check_invariants());
}

}  // namespace
}  // namespace camp::core
