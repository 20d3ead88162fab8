// Differential testing of CampCache against a deliberately naive executable
// specification of "GDS with MSY-rounded ratios and LRU tie-breaking":
// a linear-scan model with no heaps, no queues, no cleverness. If the two
// ever disagree on a hit, an eviction victim, or a byte count, CAMP's data
// structures have drifted from the algorithm.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "core/camp.h"
#include "util/rng.h"

namespace camp::core {
namespace {

/// The spec: Algorithm 1 with rounded ratios, implemented by brute force.
class ReferenceGds {
 public:
  ReferenceGds(std::uint64_t capacity, int precision)
      : capacity_(capacity), precision_(precision) {}

  bool get(policy::Key key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    // L <- min H over the *other* resident pairs.
    std::uint64_t min_h = ~0ull;
    bool found_other = false;
    for (const auto& [k, e] : entries_) {
      if (k == key) continue;
      min_h = std::min(min_h, e.h);
      found_other = true;
    }
    if (found_other && min_h > inflation_) inflation_ = min_h;
    Entry& e = it->second;
    e.ratio = scaler_.scale_and_round(e.cost, e.size, precision_);
    e.h = inflation_ + e.ratio;
    e.seq = ++seq_;
    return true;
  }

  bool put(policy::Key key, std::uint64_t size, std::uint64_t cost) {
    if (size == 0 || size > capacity_) return false;
    erase(key);
    scaler_.observe_size(size);
    const std::uint64_t ratio =
        scaler_.scale_and_round(cost, size, precision_);
    while (used_ + size > capacity_) evict_one();
    Entry e;
    e.size = size;
    e.cost = cost;
    e.ratio = ratio;
    e.h = inflation_ + ratio;
    e.seq = ++seq_;
    entries_[key] = e;
    used_ += size;
    return true;
  }

  void erase(policy::Key key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return;
    used_ -= it->second.size;
    entries_.erase(it);
  }

  [[nodiscard]] bool contains(policy::Key key) const {
    return entries_.contains(key);
  }
  [[nodiscard]] std::uint64_t used() const { return used_; }
  [[nodiscard]] std::uint64_t inflation() const { return inflation_; }
  [[nodiscard]] const std::vector<policy::Key>& evictions() const {
    return evictions_;
  }

 private:
  struct Entry {
    std::uint64_t size = 0;
    std::uint64_t cost = 0;
    std::uint64_t ratio = 0;
    std::uint64_t h = 0;
    std::uint64_t seq = 0;
  };

  void evict_one() {
    // Victim: lexicographically smallest (h, seq) — minimum priority with
    // LRU tie-breaking. Linear scan IS the spec.
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const auto& [vk, ve] = *victim;
      const auto& [k, e] = *it;
      if (std::tie(e.h, e.seq) < std::tie(ve.h, ve.seq)) victim = it;
    }
    if (victim->second.h > inflation_) inflation_ = victim->second.h;
    used_ -= victim->second.size;
    evictions_.push_back(victim->first);
    entries_.erase(victim);
  }

  std::uint64_t capacity_;
  int precision_;
  util::AdaptiveRatioScaler scaler_;
  std::map<policy::Key, Entry> entries_;
  std::uint64_t used_ = 0;
  std::uint64_t inflation_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<policy::Key> evictions_;
};

/// Key draws for the differential run. A small space (< kIdSpaceMin)
/// re-draws uniformly from its ids; a large one hands out monotonically
/// increasing ids from 0, the way the KVS engine numbers its pairs, and
/// re-references recent ones, so ~`space` distinct keys flow through the
/// cache, its index grows, and erases shift probe runs across the table's
/// wrap-around.
class KeyStream {
 public:
  static constexpr std::uint64_t kIdSpaceMin = 10'000;

  explicit KeyStream(std::uint64_t space) : space_(space) {}

  policy::Key next(util::Xoshiro256& rng) {
    if (space_ < kIdSpaceMin) return rng.below(space_);
    if (next_id_ == 0 || (next_id_ < space_ && rng.below(2) == 0)) {
      return next_id_++;
    }
    return next_id_ - 1 - rng.below(std::min<std::uint64_t>(next_id_, 200));
  }

  [[nodiscard]] std::uint64_t distinct() const { return next_id_; }

 private:
  std::uint64_t space_;
  std::uint64_t next_id_ = 0;
};

class CampVsReference
    : public ::testing::TestWithParam<
          std::tuple<int, std::uint64_t, std::uint64_t>> {};

TEST_P(CampVsReference, IdenticalBehaviour) {
  const auto [precision, seed, key_space] = GetParam();
  const bool large = key_space >= KeyStream::kIdSpaceMin;
  // The large space keeps ~60 pairs resident (the reference scans them all
  // on every hit) and runs long enough to hand out every id.
  const std::uint64_t capacity = large ? 20'000 : 6000;
  const int ops = large ? static_cast<int>(key_space * 2) : 8000;

  CampConfig config;
  config.capacity_bytes = capacity;
  config.precision = precision;
  CampCache cache(config);
  ReferenceGds reference(capacity, precision);

  std::vector<policy::Key> camp_evictions;
  cache.set_eviction_listener([&](policy::Key k, std::uint64_t) {
    camp_evictions.push_back(k);
  });

  util::Xoshiro256 rng(seed);
  KeyStream keys(key_space);
  for (int op = 0; op < ops; ++op) {
    const policy::Key k = keys.next(rng);
    const auto dice = rng.below(100);
    if (dice < 80) {
      const bool camp_hit = cache.get(k);
      const bool ref_hit = reference.get(k);
      ASSERT_EQ(camp_hit, ref_hit)
          << "op " << op << " precision " << precision << " seed " << seed;
      if (!camp_hit) {
        const std::uint64_t size = 1 + rng.below(700);
        const std::uint64_t cost = rng.below(30'000);
        ASSERT_EQ(cache.put(k, size, cost), reference.put(k, size, cost))
            << "op " << op;
      }
    } else if (dice < 92) {
      const std::uint64_t size = 1 + rng.below(700);
      const std::uint64_t cost = rng.below(30'000);
      ASSERT_EQ(cache.put(k, size, cost), reference.put(k, size, cost))
          << "op " << op;
    } else {
      cache.erase(k);
      reference.erase(k);
    }
    ASSERT_EQ(cache.used_bytes(), reference.used()) << "op " << op;
    ASSERT_EQ(cache.inflation(), reference.inflation()) << "op " << op;
    ASSERT_EQ(camp_evictions.size(), reference.evictions().size())
        << "op " << op;
    if (!camp_evictions.empty()) {
      ASSERT_EQ(camp_evictions.back(), reference.evictions().back())
          << "op " << op;
    }
    if (op % 2000 == 0) {
      ASSERT_TRUE(cache.check_invariants()) << "op " << op;
    }
  }
  EXPECT_EQ(camp_evictions, reference.evictions());
  EXPECT_TRUE(cache.check_invariants());
  EXPECT_GT(camp_evictions.size(), 100u) << "the test must exercise eviction";
  if (large) {
    EXPECT_GE(keys.distinct(), key_space * 9 / 10);
    EXPECT_GT(cache.item_count(), 32u) << "the index must grow past 64 slots";
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionSeeds, CampVsReference,
    ::testing::Combine(::testing::Values(1, 3, 5, 10,
                                         util::kPrecisionInfinity),
                       ::testing::Values<std::uint64_t>(2, 17, 99, 1234),
                       ::testing::Values<std::uint64_t>(120)));

// ~10^5 engine-style ids: fewer seeds, since each run is 25x longer.
INSTANTIATE_TEST_SUITE_P(
    IdSpace, CampVsReference,
    ::testing::Combine(::testing::Values(1, 3, 5, 10,
                                         util::kPrecisionInfinity),
                       ::testing::Values<std::uint64_t>(2, 1234),
                       ::testing::Values<std::uint64_t>(100'000)));

}  // namespace
}  // namespace camp::core
