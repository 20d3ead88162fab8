// Live precision retuning (policy::IRetunable): the rebuilt queue topology
// must be decision-equivalent to a cache constructed at the target
// precision — same eviction order, same accounting — and the structure
// invariants must hold immediately after every rebuild.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/camp.h"
#include "policy/cache_iface.h"
#include "util/rng.h"
#include "util/rounding.h"

namespace camp::core {
namespace {

using policy::Key;

CampConfig cfg(std::uint64_t capacity, int precision) {
  CampConfig c;
  c.capacity_bytes = capacity;
  c.precision = precision;
  return c;
}

/// Fixed per-key attributes, like the BG workloads: a key always has the
/// same size and cost, so seeding a second cache with a resident set is
/// well-defined.
std::uint64_t size_of(Key k) { return 16 + util::mix64(k * 2 + 1) % 700; }
std::uint64_t cost_of(Key k) { return 1 + util::mix64(k * 2 + 2) % 10'000; }

/// Drive `ops` randomized get/put requests (simulator protocol: get, on
/// miss put). Returns the order in which keys were last touched (every
/// touch refreshes a key's recency, mirroring the engine's seq).
template <typename Cache>
std::vector<Key> drive(Cache& cache, std::uint64_t seed, int ops,
                       Key key_space = 400) {
  std::vector<Key> touch_order;
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const Key k = rng.below(key_space);
    if (!cache.get(k)) {
      if (!cache.put(k, size_of(k), cost_of(k))) continue;
    }
    touch_order.push_back(k);
  }
  return touch_order;
}

/// Drain a cache via evict_one, returning the full eviction order.
template <typename Cache>
std::vector<Key> drain(Cache& cache) {
  std::vector<Key> order;
  cache.set_eviction_listener(
      [&](Key k, std::uint64_t) { order.push_back(k); });
  while (cache.evict_one()) {
  }
  cache.set_eviction_listener(nullptr);
  return order;
}

TEST(Retune, RejectsBadPrecisionAndNoOpsOnSame) {
  CampCache serial(cfg(4096, 5));
  EXPECT_THROW(serial.retune(0), std::invalid_argument);
  EXPECT_THROW(serial.retune(-3), std::invalid_argument);
  EXPECT_FALSE(serial.retune(5));  // already there
  EXPECT_EQ(serial.retune_count(), 0u);
  EXPECT_TRUE(serial.retune(2));
  EXPECT_EQ(serial.precision(), 2);
  EXPECT_EQ(serial.retune_count(), 1u);
}

TEST(Retune, AsRetunableSeesCamp) {
  CampCache serial(cfg(1024, 5));
  EXPECT_NE(policy::as_retunable(&serial), nullptr);
}

TEST(Retune, BeforeTrafficMatchesConstructedAtTarget) {
  // retune on an empty cache must be indistinguishable from having
  // constructed at the target precision.
  for (const int target : {1, 2, 64}) {
    CampCache retuned(cfg(16 * 1024, 5));
    retuned.retune(target);
    CampCache constructed(cfg(16 * 1024, target));

    std::vector<Key> a_evictions, b_evictions;
    retuned.set_eviction_listener(
        [&](Key k, std::uint64_t) { a_evictions.push_back(k); });
    constructed.set_eviction_listener(
        [&](Key k, std::uint64_t) { b_evictions.push_back(k); });
    util::Xoshiro256 rng(7);
    for (int i = 0; i < 20'000; ++i) {
      const Key k = rng.below(400);
      const bool a = retuned.get(k);
      const bool b = constructed.get(k);
      ASSERT_EQ(a, b) << "hit/miss diverged at op " << i << " (p=" << target
                      << ")";
      if (!a) {
        ASSERT_EQ(retuned.put(k, size_of(k), cost_of(k)),
                  constructed.put(k, size_of(k), cost_of(k)));
      }
    }
    EXPECT_EQ(a_evictions, b_evictions);
    EXPECT_EQ(retuned.used_bytes(), constructed.used_bytes());
    EXPECT_EQ(retuned.inflation(), constructed.inflation());
  }
}

TEST(Retune, ChainedRetunesMatchSingleRetune) {
  // retune(p) then retune(p') must equal a single retune(p'): the
  // intermediate topology may not leak into future decisions.
  CampCache chained(cfg(16 * 1024, 5));
  CampCache direct(cfg(16 * 1024, 5));
  (void)drive(chained, 42, 10'000);
  (void)drive(direct, 42, 10'000);

  chained.retune(2);
  chained.retune(64);
  direct.retune(64);
  EXPECT_EQ(chained.retune_count(), 2u);
  EXPECT_EQ(direct.retune_count(), 1u);

  std::vector<Key> a_evictions, b_evictions;
  chained.set_eviction_listener(
      [&](Key k, std::uint64_t) { a_evictions.push_back(k); });
  direct.set_eviction_listener(
      [&](Key k, std::uint64_t) { b_evictions.push_back(k); });
  util::Xoshiro256 rng(43);
  for (int i = 0; i < 20'000; ++i) {
    const Key k = rng.below(400);
    const bool a = chained.get(k);
    const bool b = direct.get(k);
    ASSERT_EQ(a, b) << "hit/miss diverged at op " << i;
    if (!a) {
      ASSERT_EQ(chained.put(k, size_of(k), cost_of(k)),
                direct.put(k, size_of(k), cost_of(k)));
    }
  }
  EXPECT_EQ(a_evictions, b_evictions);
  EXPECT_EQ(chained.used_bytes(), direct.used_bytes());
}

TEST(Retune, MatchesFreshCacheSeededWithResidentSet) {
  // The documented equivalence: retune(p') behaves like a fresh cache at
  // p' seeded with the resident set in recency order (at a constant
  // inflation offset, which cannot change any comparison). Verified by
  // comparing the full drain order.
  for (const int target : {1, 2, 64}) {
    CampCache warmed(cfg(16 * 1024, 5));
    const std::vector<Key> touches = drive(warmed, 2014, 30'000);
    warmed.retune(target);

    // Resident keys in recency (last-touch) order.
    std::vector<Key> recency;
    std::vector<bool> seen(400, false);
    for (auto it = touches.rbegin(); it != touches.rend(); ++it) {
      if (seen[*it]) continue;
      seen[*it] = true;
      if (warmed.contains(*it)) recency.push_back(*it);
    }
    std::reverse(recency.begin(), recency.end());

    CampCache fresh(cfg(16 * 1024, target));
    // Align the adaptive ratio scaler first: the warmed cache's multiplier
    // reflects the historical max size (evicted pairs included), and the
    // equivalence is stated modulo identical scaler state. A put/erase of a
    // dummy pair at that size seeds it without touching the resident set.
    const Key dummy = 1'000'000;
    ASSERT_TRUE(
        fresh.put(dummy, warmed.introspect().scaling_multiplier, 1));
    fresh.erase(dummy);
    for (const Key k : recency) {
      ASSERT_TRUE(fresh.put(k, size_of(k), cost_of(k)));
    }
    ASSERT_EQ(fresh.item_count(), warmed.item_count());
    ASSERT_EQ(fresh.used_bytes(), warmed.used_bytes());
    EXPECT_EQ(drain(warmed), drain(fresh)) << "target precision " << target;
  }
}

TEST(Retune, InvariantsHoldAcrossRetuneCycle) {
  CampCache cache(cfg(16 * 1024, 5));
  std::uint64_t expected_retunes = 0;
  int last = 5;
  for (const int p : {1, 64, 2, 5, 1, 2}) {
    (void)drive(cache, static_cast<std::uint64_t>(p) * 31 + 1, 5'000);
    EXPECT_TRUE(cache.retune(p));
    ++expected_retunes;
    last = p;
    EXPECT_TRUE(cache.check_invariants()) << "after retune to " << p;
    EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
  }
  EXPECT_EQ(cache.precision(), last);
  EXPECT_EQ(cache.introspect().retunes, expected_retunes);
  EXPECT_EQ(cache.retune_count(), expected_retunes);
  // The rebuild recycles queue objects: destroyed counts every rebuilt
  // queue, created counts every re-append group.
  EXPECT_GT(cache.introspect().queues_destroyed, 0u);
}

TEST(Retune, NameReportsCurrentPrecision) {
  CampCache serial(cfg(1024, 5));
  EXPECT_EQ(serial.name(), "camp(p=5)");
  serial.retune(2);
  EXPECT_EQ(serial.name(), "camp(p=2)");
  serial.retune(util::kPrecisionInfinity);
  EXPECT_EQ(serial.name(), "camp(p=inf)");
  EXPECT_EQ(serial.introspect().retunes, 2u);
}

}  // namespace
}  // namespace camp::core
