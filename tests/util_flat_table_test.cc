// Unit tests for util::FlatTable (open addressing, backward-shift erase,
// members that share a key) and util::ChunkPool (stable addresses,
// free-list reuse), the storage under core::CampCache and kvs::KvsEngine.
#include "util/flat_table.h"

#include <gtest/gtest.h>

#include <algorithm>
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

using Multimap = std::unordered_multimap<std::uint64_t, int*>;

/// Every member of `m` is found under its key, and nothing else is.
void expect_same_members(const Table& t, const Multimap& m) {
  ASSERT_EQ(t.size(), m.size());
  for (const auto& [k, v] : m) {
    const int* want = v;
    EXPECT_EQ(t.find_if(k, [want](const int* p) { return p == want; }), v);
  }
  std::size_t visited = 0;
  t.for_each([&](std::uint64_t k, int* v) {
    ++visited;
    const auto [lo, hi] = m.equal_range(k);
    EXPECT_TRUE(std::any_of(lo, hi, [v](const auto& kv) {
      return kv.second == v;
    })) << "stray member under key " << k;
  });
  EXPECT_EQ(visited, m.size());
}

TEST(FlatTable, FindIfSkipsEqualKeysWhosePredicateFails) {
  Table t;
  std::vector<int> values{10, 20, 30};
  const std::uint64_t k = 99;
  for (int& v : values) t.insert_multi(k, &v);
  ASSERT_TRUE(t.check_invariants());
  EXPECT_EQ(t.size(), 3u);
  // The first member in probe order fails the predicate; the probe must go
  // on to the member that passes rather than stop at the first equal key.
  EXPECT_EQ(t.find_if(k, [](const int* p) { return *p == 30; }), &values[2]);
  EXPECT_EQ(t.find_if(k, [](const int* p) { return *p == 20; }), &values[1]);
  EXPECT_EQ(t.find_if(k, [](const int* p) { return *p == 40; }), nullptr);
  EXPECT_EQ(t.find_if(k + 1, [](const int*) { return true; }), nullptr);

  EXPECT_TRUE(t.erase_value(k, &values[1]));
  EXPECT_FALSE(t.erase_value(k, &values[1]));
  EXPECT_EQ(t.find_if(k, [](const int* p) { return *p == 20; }), nullptr);
  EXPECT_EQ(t.find_if(k, [](const int* p) { return *p == 30; }), &values[2]);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(FlatTable, EraseValueFromTheMiddleOfAWrappedRun) {
  Table t;
  const std::size_t last = t.capacity() - 1;
  // Four members under ONE key homed at the last slot (slots last, 0, 1, 2)
  // plus a key homed at slot 0, displaced behind them to slot 3.
  const std::uint64_t k = keys_homed_at(t, last, 1)[0];
  const std::uint64_t other = keys_homed_at(t, 0, 1)[0];
  std::vector<int> values(5);
  Multimap model;
  for (int i = 0; i < 4; ++i) {
    t.insert_multi(k, &values[i]);
    model.emplace(k, &values[i]);
  }
  t.insert(other, &values[4]);
  model.emplace(other, &values[4]);
  ASSERT_EQ(t.capacity(), Table::kMinCapacity) << "no growth expected";
  ASSERT_TRUE(t.check_invariants());

  // values[2] sits in slot 1, past the wrap: removing it must pull the
  // later equal-key member and the displaced key back without a gap.
  ASSERT_TRUE(t.erase_value(k, &values[2]));
  for (auto it = model.begin(); it != model.end(); ++it) {
    if (it->second == &values[2]) {
      model.erase(it);
      break;
    }
  }
  EXPECT_TRUE(t.check_invariants());
  expect_same_members(t, model);
  EXPECT_EQ(t.find(other), &values[4]);

  // The wrong value under a present key is not a member.
  EXPECT_FALSE(t.erase_value(k, &values[4]));
  EXPECT_FALSE(t.erase_value(other, &values[0]));
  expect_same_members(t, model);
}

TEST(FlatTable, MatchesAStdMultimapUnderGrowthWithDuplicates) {
  Table t;
  Multimap model;
  std::vector<int> storage(8192);
  std::vector<int*> free_values;
  for (int& v : storage) free_values.push_back(&v);
  Xoshiro256 rng(25);
  std::size_t max_capacity = t.capacity();
  for (int op = 0; op < 100'000; ++op) {
    // A small key space (0 included), so most keys carry several members.
    const std::uint64_t space = op < 50'000 ? 16 + op / 25 : 2048;
    const std::uint64_t key = rng.below(space);
    const bool drain = op >= 80'000;
    if (!drain && rng.below(3) != 0 && !free_values.empty()) {
      int* v = free_values.back();
      free_values.pop_back();
      t.insert_multi(key, v);
      model.emplace(key, v);
    } else {
      // Erase one member of `key` chosen at random, or probe for an absent
      // one when the key has none.
      const auto [lo, hi] = model.equal_range(key);
      const auto n = static_cast<std::uint64_t>(std::distance(lo, hi));
      if (n == 0) {
        EXPECT_FALSE(t.erase_value(key, &storage[0]));
        EXPECT_EQ(t.find(key), nullptr);
      } else {
        auto it = lo;
        std::advance(it, static_cast<std::ptrdiff_t>(rng.below(n)));
        int* v = it->second;
        EXPECT_TRUE(t.erase_value(key, v));
        model.erase(it);
        free_values.push_back(v);
      }
    }
    ASSERT_EQ(t.size(), model.size());
    max_capacity = std::max(max_capacity, t.capacity());
    if (op % 2'500 == 0) {
      ASSERT_TRUE(t.check_invariants()) << "op " << op;
      expect_same_members(t, model);
    }
  }
  EXPECT_GE(max_capacity, 4096u) << "growth must rehash equal-key runs";
  EXPECT_TRUE(t.check_invariants());
  expect_same_members(t, model);
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
