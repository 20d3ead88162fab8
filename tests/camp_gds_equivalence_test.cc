// The paper's central approximation claim, as an executable property:
// "At the highest precision, CAMP's eviction decisions are essentially
// equivalent to those made by GDS" — with LRU tie-breaking on both sides
// and no rounding (precision = infinity), the two make *identical*
// decisions: same hits, same evictions in the same order, same residents.
#include <gtest/gtest.h>

#include <vector>

#include "core/camp.h"
#include "policy/gds.h"
#include "util/rng.h"

namespace camp {
namespace {

struct Eviction {
  policy::Key key;
  std::uint64_t size;
  bool operator==(const Eviction&) const = default;
};

class CampGdsEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CampGdsEquivalence, IdenticalDecisionsAtInfinitePrecision) {
  const std::uint64_t seed = GetParam();
  core::CampConfig camp_config;
  camp_config.capacity_bytes = 10'000;
  camp_config.precision = util::kPrecisionInfinity;
  core::CampCache camp_cache(camp_config);

  policy::GdsConfig gds_config;
  gds_config.capacity_bytes = 10'000;
  gds_config.lru_tie_break = true;
  policy::GdsCache gds_cache(gds_config);

  std::vector<Eviction> camp_evictions, gds_evictions;
  camp_cache.set_eviction_listener([&](policy::Key k, std::uint64_t s) {
    camp_evictions.push_back({k, s});
  });
  gds_cache.set_eviction_listener([&](policy::Key k, std::uint64_t s) {
    gds_evictions.push_back({k, s});
  });

  util::Xoshiro256 rng(seed);
  for (int i = 0; i < 20'000; ++i) {
    const policy::Key k = rng.below(200);
    const std::uint64_t size = 1 + rng.below(800);
    const std::uint64_t cost = 1 + rng.below(20'000);
    const bool camp_hit = camp_cache.get(k);
    const bool gds_hit = gds_cache.get(k);
    ASSERT_EQ(camp_hit, gds_hit) << "divergence at op " << i;
    if (!camp_hit) {
      ASSERT_EQ(camp_cache.put(k, size, cost), gds_cache.put(k, size, cost))
          << "op " << i;
    }
    ASSERT_EQ(camp_evictions.size(), gds_evictions.size()) << "op " << i;
  }
  EXPECT_EQ(camp_evictions, gds_evictions)
      << "eviction sequences must match exactly";
  EXPECT_EQ(camp_cache.item_count(), gds_cache.item_count());
  EXPECT_EQ(camp_cache.used_bytes(), gds_cache.used_bytes());
  EXPECT_EQ(camp_cache.stats().hits, gds_cache.stats().hits);
  EXPECT_EQ(camp_cache.inflation(), gds_cache.inflation());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CampGdsEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(CampGdsEquivalence, SkewedWorkloadWithThreeCostTiers) {
  // Paper-flavoured: Zipf-ish reuse, costs from {1, 100, 10K} fixed per key.
  core::CampConfig camp_config;
  camp_config.capacity_bytes = 50'000;
  camp_config.precision = util::kPrecisionInfinity;
  core::CampCache camp_cache(camp_config);

  policy::GdsConfig gds_config;
  gds_config.capacity_bytes = 50'000;
  gds_config.lru_tie_break = true;
  policy::GdsCache gds_cache(gds_config);

  std::vector<Eviction> camp_ev, gds_ev;
  camp_cache.set_eviction_listener(
      [&](policy::Key k, std::uint64_t s) { camp_ev.push_back({k, s}); });
  gds_cache.set_eviction_listener(
      [&](policy::Key k, std::uint64_t s) { gds_ev.push_back({k, s}); });

  const std::uint32_t costs[3] = {1, 100, 10'000};
  util::Xoshiro256 rng(777);
  for (int i = 0; i < 30'000; ++i) {
    // Crude skew: 70% of requests to keys 0..99, rest to 100..999.
    const policy::Key k = rng.below(100) < 70 ? rng.below(100)
                                              : 100 + rng.below(900);
    const std::uint64_t size = 64 + (util::mix64(k) % 1000);
    const std::uint64_t cost = costs[util::mix64(k ^ 0xc0ffee) % 3];
    const bool ch = camp_cache.get(k);
    const bool gh = gds_cache.get(k);
    ASSERT_EQ(ch, gh) << "op " << i;
    if (!ch) {
      camp_cache.put(k, size, cost);
      gds_cache.put(k, size, cost);
    }
  }
  EXPECT_EQ(camp_ev, gds_ev);
  EXPECT_EQ(camp_cache.used_bytes(), gds_cache.used_bytes());
}

TEST(CampGdsApproximation, LowPrecisionStaysClose) {
  // At precision 5 decisions may differ, but the *cost* consequences stay
  // close (the paper's Figure 5a shows near-zero degradation). We assert a
  // generous envelope: missed cost within 25% of GDS's on a skewed stream.
  core::CampConfig camp_config;
  camp_config.capacity_bytes = 30'000;
  camp_config.precision = 5;
  core::CampCache camp_cache(camp_config);

  policy::GdsConfig gds_config;
  gds_config.capacity_bytes = 30'000;
  policy::GdsCache gds_cache(gds_config);

  std::uint64_t camp_missed_cost = 0, gds_missed_cost = 0;
  const std::uint32_t costs[3] = {1, 100, 10'000};
  util::Xoshiro256 rng(4242);
  for (int i = 0; i < 60'000; ++i) {
    const policy::Key k = rng.below(100) < 70 ? rng.below(150)
                                              : 150 + rng.below(1350);
    const std::uint64_t size = 64 + (util::mix64(k) % 1000);
    const std::uint64_t cost = costs[util::mix64(k ^ 0xc0ffee) % 3];
    if (!camp_cache.get(k)) {
      camp_missed_cost += cost;
      camp_cache.put(k, size, cost);
    }
    if (!gds_cache.get(k)) {
      gds_missed_cost += cost;
      gds_cache.put(k, size, cost);
    }
  }
  EXPECT_LT(static_cast<double>(camp_missed_cost),
            1.25 * static_cast<double>(gds_missed_cost));
  EXPECT_GT(static_cast<double>(camp_missed_cost),
            0.75 * static_cast<double>(gds_missed_cost));
}

}  // namespace
}  // namespace camp
