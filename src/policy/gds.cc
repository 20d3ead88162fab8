#include "policy/gds.h"

#include <cassert>

namespace camp::policy {

GdsCache::GdsCache(GdsConfig config)
    : CacheBase(config.capacity_bytes),
      heap_(ItemKeyLess{config.lru_tie_break}) {
  if (config.capacity_bytes == 0) {
    throw std::invalid_argument("GdsConfig: capacity_bytes must be > 0");
  }
}

bool GdsCache::get(Key key) {
  ++stats_.gets;
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  Entry& e = it->second;
  // Algorithm 1 line 2: L <- min H over the pairs other than p. Remove p's
  // node, read the minimum, then reinsert with the refreshed priority —
  // exactly the per-hit heap traffic Figure 4 charges GDS for.
  heap_.erase(e.handle);
  if (!heap_.empty() && heap_.top().h > inflation_) {
    inflation_ = heap_.top().h;
  }
  e.h = inflation_ + scaler_.scale(e.cost, e.size);
  e.handle = heap_.push(ItemKey{e.h, ++seq_, key});
  return true;
}

bool GdsCache::put(Key key, std::uint64_t size, std::uint64_t cost) {
  ++stats_.puts;
  if (size == 0 || size > capacity_) {
    ++stats_.rejected_puts;
    return false;
  }
  erase(key);
  scaler_.observe_size(size);
  const std::uint64_t ratio = scaler_.scale(cost, size);
  while (used_ + size > capacity_) evict_one();
  auto [it, inserted] = index_.try_emplace(key);
  assert(inserted);
  Entry& e = it->second;
  e.key = key;
  e.size = size;
  e.cost = cost;
  e.h = inflation_ + ratio;
  e.handle = heap_.push(ItemKey{e.h, ++seq_, key});
  used_ += size;
  return true;
}

bool GdsCache::contains(Key key) const { return index_.contains(key); }

void GdsCache::erase(Key key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  heap_.erase(it->second.handle);
  used_ -= it->second.size;
  index_.erase(it);
}

std::size_t GdsCache::item_count() const { return index_.size(); }

std::string GdsCache::name() const { return "gds"; }

std::optional<Key> GdsCache::peek_victim() const {
  if (heap_.empty()) return std::nullopt;
  return heap_.top().key;
}

std::uint64_t GdsCache::priority_of(Key key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? 0 : it->second.h;
}

bool GdsCache::evict_one() {
  if (heap_.empty()) return false;
  const ItemKey top = heap_.top();
  if (top.h > inflation_) inflation_ = top.h;  // L <- H of the evicted min
  const auto it = index_.find(top.key);
  assert(it != index_.end());
  const std::uint64_t vsize = it->second.size;
  heap_.pop();
  index_.erase(it);
  note_eviction(top.key, vsize);
  return true;
}

std::unique_ptr<ICache> make_gds(GdsConfig config) {
  return std::make_unique<GdsCache>(config);
}

}  // namespace camp::policy
