// Randomized differential tests: DaryHeap (several arities) against a
// reference multiset-based priority queue, exercising push / pop / update /
// erase interleavings.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "heap/dary_heap.h"
#include "util/rng.h"

namespace camp::heap {
namespace {

// Reference model: id -> value plus ordered (value, id) set.
class ReferencePq {
 public:
  void push(int id, std::uint64_t value) {
    values_[id] = value;
    ordered_.insert({value, id});
  }
  void update(int id, std::uint64_t value) {
    ordered_.erase({values_.at(id), id});
    values_[id] = value;
    ordered_.insert({value, id});
  }
  void erase(int id) {
    ordered_.erase({values_.at(id), id});
    values_.erase(id);
  }
  [[nodiscard]] std::uint64_t min_value() const {
    return ordered_.begin()->first;
  }
  [[nodiscard]] bool empty() const { return ordered_.empty(); }
  [[nodiscard]] std::size_t size() const { return ordered_.size(); }

 private:
  std::map<int, std::uint64_t> values_;
  std::set<std::pair<std::uint64_t, int>> ordered_;
};

template <class Heap>
void run_differential(std::uint64_t seed, int operations) {
  Heap heap;
  ReferencePq ref;
  util::Xoshiro256 rng(seed);
  std::map<int, typename Heap::Handle> handles;
  int next_id = 0;

  for (int op = 0; op < operations; ++op) {
    const std::uint64_t dice = rng.below(100);
    if (dice < 40 || handles.empty()) {
      const std::uint64_t v = rng.below(1000);
      const int id = next_id++;
      handles[id] = heap.push(v);
      ref.push(id, v);
    } else if (dice < 60) {
      // update a random live element
      auto it = handles.begin();
      std::advance(it, static_cast<long>(rng.below(handles.size())));
      const std::uint64_t v = rng.below(1000);
      heap.update(it->second, v);
      ref.update(it->first, v);
    } else if (dice < 80) {
      auto it = handles.begin();
      std::advance(it, static_cast<long>(rng.below(handles.size())));
      heap.erase(it->second);
      ref.erase(it->first);
      handles.erase(it);
    } else {
      // pop-min: values must agree (ids may differ on ties)
      ASSERT_FALSE(heap.empty());
      ASSERT_EQ(heap.top(), ref.min_value());
      // find which id the heap evicts is unspecified on ties; remove the
      // matching (value) element from the reference by scanning handles.
      const std::uint64_t v = heap.top();
      heap.pop();
      // remove one ref element with value v
      for (auto it = handles.begin(); it != handles.end(); ++it) {
        bool heap_still_has = heap.is_valid_handle(it->second);
        if (!heap_still_has) {
          ASSERT_EQ(v, v);
          ref.erase(it->first);
          handles.erase(it);
          break;
        }
      }
    }
    ASSERT_EQ(heap.size(), ref.size());
    if (!heap.empty()) {
      ASSERT_EQ(heap.top(), ref.min_value()) << "op " << op;
    }
  }
}

// Adapters: give both heaps a uniform face for the test driver.
template <int Arity>
class DaryAdapter {
 public:
  using Handle = typename DaryHeap<std::uint64_t, std::less<>, Arity>::Handle;
  Handle push(std::uint64_t v) { return heap_.push(v); }
  void update(Handle h, std::uint64_t v) { heap_.update(h, v); }
  void erase(Handle h) { heap_.erase(h); }
  void pop() { heap_.pop(); }
  [[nodiscard]] std::uint64_t top() const { return heap_.top(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool is_valid_handle(Handle h) const {
    return heap_.is_valid(h);
  }
  [[nodiscard]] bool check() { return heap_.check_invariants(); }

 private:
  DaryHeap<std::uint64_t, std::less<>, Arity> heap_;
};

class HeapDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapDifferential, Dary2) {
  run_differential<DaryAdapter<2>>(GetParam(), 3000);
}
TEST_P(HeapDifferential, Dary4) {
  run_differential<DaryAdapter<4>>(GetParam(), 3000);
}
TEST_P(HeapDifferential, Dary8) {
  run_differential<DaryAdapter<8>>(GetParam(), 3000);
}
TEST_P(HeapDifferential, Dary16) {
  run_differential<DaryAdapter<16>>(GetParam(), 3000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(DaryHeapInvariants, HoldUnderRandomOps) {
  DaryAdapter<8> h;
  util::Xoshiro256 rng(99);
  std::vector<DaryAdapter<8>::Handle> handles;
  for (int i = 0; i < 2000; ++i) {
    const auto dice = rng.below(10);
    if (dice < 5 || handles.empty()) {
      handles.push_back(h.push(rng.below(500)));
    } else if (dice < 8) {
      const auto idx = static_cast<std::size_t>(rng.below(handles.size()));
      if (h.is_valid_handle(handles[idx])) {
        h.update(handles[idx], rng.below(500));
      }
    } else if (!h.empty()) {
      h.pop();
    }
    ASSERT_TRUE(h.check()) << "after op " << i;
  }
}

}  // namespace
}  // namespace camp::heap
