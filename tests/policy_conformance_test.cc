// Cross-policy conformance suite: every eviction policy reachable through
// the factory must honour the ICache contract under randomized workloads —
// byte budgets, count consistency, listener accounting, overwrite/erase
// semantics. Catches contract drift that per-policy unit tests miss.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "policy/policy_factory.h"
#include "util/rng.h"

namespace camp::policy {
namespace {

class PolicyConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyConformance, ByteBudgetNeverExceeded) {
  auto cache = make_policy(GetParam(), 8000);
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 5000; ++i) {
    const Key k = rng.below(200);
    if (!cache->get(k)) {
      cache->put(k, 1 + rng.below(900), rng.below(10'000));
    }
    ASSERT_LE(cache->used_bytes(), cache->capacity_bytes()) << "op " << i;
  }
}

TEST_P(PolicyConformance, ListenerAccountsEveryByte) {
  auto cache = make_policy(GetParam(), 4000);
  // bytes tracked externally: inserts add, listener + erase subtract;
  // must equal used_bytes at every step.
  std::map<Key, std::uint64_t> resident;
  std::uint64_t bytes = 0;
  cache->set_eviction_listener([&](Key k, std::uint64_t size) {
    const auto it = resident.find(k);
    ASSERT_NE(it, resident.end()) << "listener fired for unknown key " << k;
    ASSERT_EQ(it->second, size) << "listener size mismatch for " << k;
    bytes -= size;
    resident.erase(it);
  });
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 4000; ++i) {
    const Key k = rng.below(100);
    const auto dice = rng.below(10);
    if (dice < 7) {
      const std::uint64_t size = 1 + rng.below(500);
      // A rejected put leaves any previous value in place; only update the
      // model when the put is admitted (overwrite-erase fires no event).
      if (cache->put(k, size, 1 + rng.below(1000))) {
        if (const auto it = resident.find(k); it != resident.end()) {
          bytes -= it->second;
          resident.erase(it);
        }
        resident[k] = size;
        bytes += size;
      }
    } else if (dice < 9) {
      if (const auto it = resident.find(k); it != resident.end()) {
        bytes -= it->second;
        resident.erase(it);
      }
      cache->erase(k);
    } else {
      cache->get(k);
    }
    ASSERT_EQ(bytes, cache->used_bytes()) << GetParam() << " op " << i;
    ASSERT_EQ(resident.size(), cache->item_count()) << GetParam() << " op "
                                                    << i;
  }
}

TEST_P(PolicyConformance, ContainsAgreesWithGet) {
  auto cache = make_policy(GetParam(), 6000);
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 3000; ++i) {
    const Key k = rng.below(150);
    const bool resident = cache->contains(k);
    const bool hit = cache->get(k);
    ASSERT_EQ(resident, hit) << GetParam() << " op " << i;
    if (!hit) cache->put(k, 1 + rng.below(400), 1 + rng.below(100));
  }
}

TEST_P(PolicyConformance, EraseIsIdempotentAndSilent) {
  auto cache = make_policy(GetParam(), 2000);
  int evictions = 0;
  cache->set_eviction_listener([&](Key, std::uint64_t) { ++evictions; });
  cache->put(1, 100, 10);
  cache->erase(1);
  cache->erase(1);
  cache->erase(42);  // never existed
  EXPECT_EQ(evictions, 0) << "erase must not fire the eviction listener";
  EXPECT_FALSE(cache->contains(1));
}

TEST_P(PolicyConformance, StatsCountersAreConsistent) {
  auto cache = make_policy(GetParam(), 5000);
  util::Xoshiro256 rng(4);
  for (int i = 0; i < 2000; ++i) {
    const Key k = rng.below(80);
    if (!cache->get(k)) cache->put(k, 1 + rng.below(300), 1);
  }
  const CacheStats& stats = cache->stats();
  EXPECT_EQ(stats.gets, 2000u);
  EXPECT_EQ(stats.hits + stats.misses, stats.gets);
  EXPECT_LE(stats.hit_rate(), 1.0);
  EXPECT_GE(stats.hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.hit_rate() + stats.miss_rate(), 1.0);
}

TEST_P(PolicyConformance, SurvivesSingleByteCapacity) {
  auto cache = make_policy(GetParam(), 1);
  EXPECT_FALSE(cache->put(1, 2, 1)) << "bigger than the whole cache";
  cache->put(1, 1, 1);  // may or may not admit; must not crash
  cache->get(1);
  cache->erase(1);
  EXPECT_LE(cache->used_bytes(), 1u);
}

TEST_P(PolicyConformance, HotKeyStaysUnderChurn) {
  // A key touched on every second request must survive in every policy
  // (it is maximally recent, frequent, and its cost is the highest).
  auto cache = make_policy(GetParam(), 3000);
  cache->put(999, 100, 1'000'000);
  util::Xoshiro256 rng(5);
  int lost = 0;
  for (int i = 0; i < 4000; ++i) {
    if (i % 2 == 0) {
      if (!cache->get(999)) {
        ++lost;
        cache->put(999, 100, 1'000'000);
      }
    } else {
      const Key k = rng.below(500);
      if (!cache->get(k)) cache->put(k, 1 + rng.below(200), 1);
    }
  }
  EXPECT_LE(lost, 3) << GetParam()
                     << ": a hot, expensive key should essentially never "
                        "be evicted";
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyConformance,
    ::testing::Values("lru", "camp", "camp:p=1", "camp:p=64", "camp:p=auto",
                      "gds", "gds:lru"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':' || c == '=') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace camp::policy
