// Differential tests anchoring the cooperative group to the single-cache
// semantics it generalizes: a 1-node group with the guard disabled must be
// observationally identical to driving the same policy cache directly.
#include <gtest/gtest.h>

#include <vector>

#include "coop/group.h"
#include "policy/policy_factory.h"
#include "util/rng.h"

namespace camp::coop {
namespace {

using policy::Key;

struct Op {
  Key key;
  std::uint64_t size;
  std::uint64_t cost;
};

std::vector<Op> random_ops(std::uint64_t seed, int count) {
  util::Xoshiro256 rng(seed);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    ops.push_back(Op{rng.below(300), 16 + rng.below(500),
                     1 + rng.below(10'000)});
  }
  return ops;
}

class CoopSingleNodeEquivalence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(CoopSingleNodeEquivalence, MatchesPlainCache) {
  const std::uint64_t cap = 20'000;
  CoopConfig cfg;
  cfg.nodes = 1;
  cfg.node_capacity_bytes = cap;
  cfg.policy_spec = GetParam();
  cfg.preserve_last_replica = false;
  CoopGroup group(cfg);

  auto plain = policy::make_policy(GetParam(), cap);

  std::uint64_t plain_noncold = 0, plain_misses = 0, plain_cold = 0;
  std::uint64_t plain_noncold_cost = 0, plain_missed_cost = 0;
  std::unordered_set<Key> seen;

  for (const Op& op : random_ops(31, 30'000)) {
    const bool cold = seen.insert(op.key).second;
    const bool plain_hit = plain->get(op.key);
    if (!plain_hit) plain->put(op.key, op.size, op.cost);
    if (!cold) {
      ++plain_noncold;
      plain_noncold_cost += op.cost;
      if (!plain_hit) {
        ++plain_misses;
        plain_missed_cost += op.cost;
      }
    } else {
      ++plain_cold;
    }
    const bool group_hit = group.request(op.key, op.size, op.cost);
    ASSERT_EQ(plain_hit, group_hit) << "hit/miss diverged";
  }

  const CoopMetrics& m = group.metrics();
  EXPECT_EQ(m.cold_misses, plain_cold);
  EXPECT_EQ(m.misses, plain_misses);
  EXPECT_EQ(m.remote_hits, 0u);
  EXPECT_EQ(m.guard_hits, 0u);
  EXPECT_EQ(m.noncold_cost, plain_noncold_cost);
  EXPECT_EQ(m.missed_cost, plain_missed_cost);
  EXPECT_EQ(m.transfer_cost, 0u);
  EXPECT_DOUBLE_EQ(m.cost_miss_ratio(),
                   plain_noncold_cost == 0
                       ? 0.0
                       : static_cast<double>(plain_missed_cost) /
                             static_cast<double>(plain_noncold_cost));
  EXPECT_EQ(group.node_used_bytes(0), plain->used_bytes());
  EXPECT_EQ(group.node_stats(0).evictions, plain->stats().evictions);
  EXPECT_TRUE(group.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Policies, CoopSingleNodeEquivalence,
                         ::testing::Values("lru", "camp", "gds:lru"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == ':' || c == '=' || c == '-') c = '_';
                           }
                           return name;
                         });

TEST(CoopGuardEquivalence, GuardOnlyAddsHitsNeverChangesResidents) {
  // With the guard enabled, every extra hit the group reports must be a
  // guard hit: the node caches themselves behave identically because the
  // guard reinstates through the normal put path only on access.
  const std::uint64_t cap = 8'000;
  const auto ops = random_ops(77, 20'000);

  CoopConfig off;
  off.nodes = 1;
  off.node_capacity_bytes = cap;
  off.preserve_last_replica = false;
  CoopGroup group_off(off);

  CoopConfig on = off;
  on.preserve_last_replica = true;
  on.guard_fraction = 0.25;
  on.guard_lease_requests = 5'000;
  CoopGroup group_on(on);

  for (const Op& op : ops) {
    group_off.request(op.key, op.size, op.cost);
    group_on.request(op.key, op.size, op.cost);
  }
  const CoopMetrics& moff = group_off.metrics();
  const CoopMetrics& mon = group_on.metrics();
  EXPECT_GT(mon.guard_hits, 0u) << "guard never fired; weak scenario";
  EXPECT_LT(mon.misses, moff.misses)
      << "guard hits must convert misses into hits";
  EXPECT_LE(mon.missed_cost, moff.missed_cost);
  EXPECT_TRUE(group_on.check_invariants());
}

}  // namespace
}  // namespace camp::coop
