// Property tests: structural invariants of the CAMP data structures under
// randomized workloads, across precisions and seeds.
#include <gtest/gtest.h>

#include <tuple>

#include "core/camp.h"
#include "util/rng.h"

namespace camp::core {
namespace {

class CampInvariants
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CampInvariants, HoldUnderRandomWorkload) {
  const auto [precision, seed] = GetParam();
  CampConfig config;
  config.capacity_bytes = 5000;
  config.precision = precision;
  CampCache cache(config);
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < 3000; ++i) {
    const policy::Key k = rng.below(100);
    const auto dice = rng.below(100);
    if (dice < 70) {
      if (!cache.get(k)) {
        cache.put(k, 1 + rng.below(500), rng.below(20'000));
      }
    } else if (dice < 85) {
      cache.put(k, 1 + rng.below(500), rng.below(20'000));
    } else {
      cache.erase(k);
    }
    if (i % 64 == 0) {
      ASSERT_TRUE(cache.check_invariants())
          << "precision=" << precision << " seed=" << seed << " op=" << i;
    }
  }
  ASSERT_TRUE(cache.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionSeeds, CampInvariants,
    ::testing::Combine(::testing::Values(1, 2, 5, 10, util::kPrecisionInfinity),
                       ::testing::Values<std::uint64_t>(1, 7, 42)));

TEST(CampBound, QueueCountWithinPropositionTwo) {
  // Number of non-empty queues <= (ceil(log2(U+1)) - p + 1) * 2^p where U
  // is the largest scaled (pre-rounding) ratio observed.
  for (int precision : {1, 2, 3, 5, 8}) {
    CampConfig config;
    config.capacity_bytes = 1 << 20;
    config.precision = precision;
    CampCache cache(config);
    util::Xoshiro256 rng(23 + static_cast<std::uint64_t>(precision));
    for (int i = 0; i < 5000; ++i) {
      const policy::Key k = rng.below(2000);
      if (!cache.get(k)) {
        cache.put(k, 1 + rng.below(4096), 1 + rng.below(100'000));
      }
    }
    const auto intro = cache.introspect();
    ASSERT_GT(intro.max_scaled_ratio, 0u);
    EXPECT_LE(intro.nonempty_queues,
              util::distinct_rounded_values_bound(intro.max_scaled_ratio,
                                                  precision))
        << "precision=" << precision;
  }
}

TEST(CampBound, LowerPrecisionNeverMoreQueues) {
  // Rounding coarser can only merge queues (on the same request stream).
  std::vector<std::size_t> queue_counts;
  for (int precision : {1, 3, 6, 10}) {
    CampConfig config;
    config.capacity_bytes = 1 << 18;
    config.precision = precision;
    CampCache cache(config);
    util::Xoshiro256 rng(31);
    for (int i = 0; i < 4000; ++i) {
      const policy::Key k = rng.below(500);
      if (!cache.get(k)) {
        cache.put(k, 1 + rng.below(2048), 1 + rng.below(50'000));
      }
    }
    queue_counts.push_back(cache.queue_count());
  }
  for (std::size_t i = 1; i < queue_counts.size(); ++i) {
    EXPECT_LE(queue_counts[i - 1], queue_counts[i] * 2)
        << "coarser precision should not explode queue count";
  }
}

TEST(Camp, HitRecomputesRatioWithGrownMultiplier) {
  // The adaptively grown scaling multiplier is used for all future rounding,
  // including the re-rounding a hit does.
  CampConfig config;
  config.capacity_bytes = 1 << 20;
  config.precision = util::kPrecisionInfinity;
  CampCache cache(config);
  cache.put(1, 100, 10);  // multiplier 100 -> ratio 10
  const auto r_before = cache.ratio_of(1);
  cache.put(2, 10'000, 10);  // multiplier grows to 10'000
  ASSERT_TRUE(cache.get(1));
  EXPECT_GT(cache.ratio_of(1), r_before)
      << "recomputed ratio uses the grown multiplier";
}

}  // namespace
}  // namespace camp::core
