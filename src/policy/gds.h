// Greedy Dual Size (Cao & Irani, USITS 1997) — the algorithm CAMP
// approximates, implemented the straightforward way the paper's Figure 4
// measures against: one priority-queue node per resident key-value pair,
// updated on every hit.
//
// Priorities use the same adaptive integer scaling as CAMP so that the two
// are directly comparable (the paper's "infinity precision" simulation runs
// GDS on integer-scaled, unrounded ratios).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "heap/dary_heap.h"
#include "policy/cache_iface.h"
#include "util/rounding.h"

namespace camp::policy {

struct GdsConfig {
  std::uint64_t capacity_bytes = 0;
  /// Break priority ties by recency (LRU) instead of arbitrarily. The
  /// CAMP-equivalence property requires this; the figures keep the paper's
  /// arbitrary tie-break by default.
  bool lru_tie_break = false;
};

class GdsCache final : public CacheBase {
 public:
  explicit GdsCache(GdsConfig config);

  bool get(Key key) override;
  bool put(Key key, std::uint64_t size, std::uint64_t cost) override;
  [[nodiscard]] bool contains(Key key) const override;
  void erase(Key key) override;
  [[nodiscard]] std::size_t item_count() const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::optional<Key> peek_victim() const;
  bool evict_one() override;
  [[nodiscard]] std::uint64_t priority_of(Key key) const;
  [[nodiscard]] std::uint64_t inflation() const noexcept { return inflation_; }
  [[nodiscard]] const heap::HeapStats& heap_stats() const {
    return heap_.stats();
  }

 private:
  struct Entry {
    Key key = 0;
    std::uint64_t size = 0;
    std::uint64_t cost = 0;
    std::uint64_t h = 0;
    std::uint32_t handle = 0;  // heap handle
  };

  struct ItemKey {
    std::uint64_t h = 0;
    std::uint64_t seq = 0;  // tie-break: access order if lru_tie_break
    Key key = 0;
  };
  struct ItemKeyLess {
    bool lru_tie_break;
    bool operator()(const ItemKey& a, const ItemKey& b) const noexcept {
      if (a.h != b.h) return a.h < b.h;
      return lru_tie_break && a.seq < b.seq;
    }
  };
  // Binary heap: the conventional choice Figure 4's GDS curve represents.
  using ItemHeap = heap::DaryHeap<ItemKey, ItemKeyLess, 2>;

  util::AdaptiveRatioScaler scaler_;
  std::unordered_map<Key, Entry> index_;
  ItemHeap heap_;
  std::uint64_t inflation_ = 0;
  std::uint64_t seq_ = 0;
};

[[nodiscard]] std::unique_ptr<ICache> make_gds(GdsConfig config);

}  // namespace camp::policy
