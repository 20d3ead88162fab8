// Unit tests for util::FlatTable (open addressing, backward-shift erase) and
// util::ChunkPool (stable addresses, free-list reuse), the storage under
// core::CampCache.
#include "util/flat_table.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace camp::util {
namespace {

using Table = FlatTable<int>;

/// The first `n` keys (scanning up from `from`) whose home slot is `slot`.
std::vector<std::uint64_t> keys_homed_at(const Table& t, std::size_t slot,
                                         std::size_t n,
                                         std::uint64_t from = 1) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = from; out.size() < n; ++k) {
    if (t.home(k) == slot) out.push_back(k);
  }
  return out;
}

TEST(FlatTable, EraseOfMissingKeyIsANoOp) {
  Table t;
  int v = 1;
  EXPECT_FALSE(t.erase(42));
  t.insert(7, &v);
  EXPECT_FALSE(t.erase(42));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(7), &v);
  EXPECT_TRUE(t.erase(7));
  EXPECT_FALSE(t.erase(7));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(FlatTable, KeyZeroIsAnOrdinaryKey) {
  Table t;
  int zero = 0, one = 1;
  EXPECT_EQ(t.find(0), nullptr);
  t.insert(0, &zero);
  t.insert(1, &one);
  EXPECT_EQ(t.find(0), &zero);
  EXPECT_EQ(t.find(1), &one);
  EXPECT_TRUE(t.erase(0));
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(t.find(1), &one);
  EXPECT_TRUE(t.check_invariants());
}

TEST(FlatTable, EraseShiftsAChainBackAcrossTheWrap) {
  Table t;
  const std::size_t last = t.capacity() - 1;
  // Three keys homed at the last slot occupy last, 0 and 1; a key homed at
  // slot 0 is displaced to slot 2. The run wraps around the end.
  const auto at_last = keys_homed_at(t, last, 3);
  const auto at_zero = keys_homed_at(t, 0, 1);
  std::vector<int> values(4);
  t.insert(at_last[0], &values[0]);
  t.insert(at_last[1], &values[1]);
  t.insert(at_last[2], &values[2]);
  t.insert(at_zero[0], &values[3]);
  ASSERT_EQ(t.capacity(), Table::kMinCapacity) << "no growth expected";
  ASSERT_TRUE(t.check_invariants());

  // Erasing the run's first member must pull every later member back one
  // slot, across the wrap, without leaving a gap before any of them.
  EXPECT_TRUE(t.erase(at_last[0]));
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.find(at_last[0]), nullptr);
  EXPECT_EQ(t.find(at_last[1]), &values[1]);
  EXPECT_EQ(t.find(at_last[2]), &values[2]);
  EXPECT_EQ(t.find(at_zero[0]), &values[3]);

  // Erasing in the middle of the wrapped run keeps the rest reachable.
  EXPECT_TRUE(t.erase(at_last[2]));
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.find(at_last[1]), &values[1]);
  EXPECT_EQ(t.find(at_zero[0]), &values[3]);
  EXPECT_TRUE(t.erase(at_last[1]));
  EXPECT_TRUE(t.erase(at_zero[0]));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(FlatTable, MatchesAStdMapUnderGrowthAndChurn) {
  Table t;
  std::unordered_map<std::uint64_t, int*> model;
  std::vector<int> storage(4096);
  Xoshiro256 rng(2014);
  std::size_t max_capacity = t.capacity();
  for (int op = 0; op < 200'000; ++op) {
    // A key space that grows, then churns, then drains, so the table grows
    // several times and erases run through long wrapped probe sequences.
    const std::uint64_t space = op < 100'000 ? 64 + op / 40 : 4096;
    const std::uint64_t key = rng.below(space) * 0x10001;  // 0 included
    const bool drain = op >= 150'000;
    if (!drain && rng.below(3) != 0) {
      if (model.find(key) == model.end()) {
        int* v = &storage[key % storage.size()];
        t.insert(key, v);
        model[key] = v;
      }
    } else {
      EXPECT_EQ(t.erase(key), model.erase(key) == 1);
    }
    ASSERT_EQ(t.size(), model.size());
    max_capacity = std::max(max_capacity, t.capacity());
    if (op % 5'000 == 0) {
      ASSERT_TRUE(t.check_invariants()) << "op " << op;
      for (const auto& [k, v] : model) ASSERT_EQ(t.find(k), v);
    }
  }
  EXPECT_GE(max_capacity, 4096u) << "the churn must force several doublings";
  EXPECT_TRUE(t.check_invariants());
  std::size_t visited = 0;
  t.for_each([&](std::uint64_t k, int* v) {
    ++visited;
    EXPECT_EQ(model.at(k), v);
  });
  EXPECT_EQ(visited, model.size());
}

TEST(ChunkPool, AddressesAreStableAndReleasedObjectsAreReused) {
  struct Obj {
    std::uint64_t payload[5] = {};
  };
  ChunkPool<Obj> pool;
  std::vector<Obj*> live;
  for (std::size_t i = 0; i < 3 * ChunkPool<Obj>::kChunkObjects; ++i) {
    live.push_back(pool.acquire());
    live.back()->payload[0] = i;
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i]->payload[0], i) << "earlier objects must not move";
  }
  const std::size_t allocated = pool.allocated();
  EXPECT_EQ(pool.live(), live.size());

  // Steady churn at the high-water count carves nothing new.
  Xoshiro256 rng(7);
  for (int op = 0; op < 10'000; ++op) {
    const std::size_t i = rng.below(live.size());
    pool.release(live[i]);
    live[i] = pool.acquire();
  }
  EXPECT_EQ(pool.allocated(), allocated);
  EXPECT_EQ(pool.live(), live.size());
}

}  // namespace
}  // namespace camp::util
