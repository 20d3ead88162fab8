// CAMP: Cost Adaptive Multi-queue eviction Policy (the paper's contribution).
//
// CAMP approximates Greedy Dual Size with LRU-grade constant-factor work:
//
//   * Every resident pair has priority H = L + r, where L is the global
//     non-decreasing GDS inflation value and r is the pair's cost-to-size
//     ratio, scaled to an integer adaptively (by the largest size seen so
//     far, a lower-bound estimate of 1/min-ratio) and rounded to its
//     `precision` most significant bits (util::msy_round).
//   * Pairs with equal rounded ratio share one LRU queue. Because L never
//     decreases, LRU order within a queue IS priority order, so each queue
//     is a plain intrusive list.
//   * An 8-ary implicit heap indexes only the queue *heads*. The eviction
//     victim is the head with the lexicographically smallest (H, access
//     sequence number) — i.e. minimum priority with LRU tie-breaking, as
//     the paper specifies.
//   * A hit that does not change a queue head costs O(1); the heap is
//     touched only when a head changes or a queue appears/disappears.
//
// Storage is allocation-free once the cache has reached its high-water
// resident and queue counts: pairs and queues live in stable-address chunk
// pools (util::ChunkPool) and are found through one open-addressing index
// type (util::FlatTable: power-of-two, multiplicative hash, no division on
// any probe) — key -> pair, and rounded ratio -> queue, for every precision.
// A hit divides only when the scaler's max size has grown since the pair
// was last rounded: each pair stamps the max size its queue's ratio was
// rounded with, and a hit whose stamp is current reuses that ratio. A hit
// that stays in a queue with other members moves to the tail in place.
//
// With precision = util::kPrecisionInfinity the rounded ratio equals the
// scaled ratio and CAMP's decisions are exactly those of GDS with LRU
// tie-breaking (tests/camp_gds_equivalence_test.cc asserts this).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "heap/dary_heap.h"
#include "intrusive/list.h"
#include "policy/cache_iface.h"
#include "util/flat_table.h"
#include "util/rounding.h"

namespace camp::core {

struct CampConfig {
  std::uint64_t capacity_bytes = 0;
  /// Number of significant bits kept by the rounding scheme. The paper's
  /// simulation sweeps 1..10 and uses 5 for the headline figures;
  /// util::kPrecisionInfinity disables rounding (GDS-equivalent decisions).
  int precision = 5;

  void validate() const;  // throws std::invalid_argument on nonsense
};

/// Aggregate introspection counters, exposed for tests, the Figure 4/5b
/// figures and perfbench.
struct CampIntrospection {
  std::size_t nonempty_queues = 0;       // current LRU queue count
  std::uint64_t queues_created = 0;      // lifetime
  std::uint64_t queues_destroyed = 0;    // lifetime
  std::uint64_t retunes = 0;             // precision changes (IRetunable)
  std::uint64_t inflation = 0;           // current L
  std::uint64_t max_scaled_ratio = 0;    // largest pre-rounding ratio seen (U)
  std::uint64_t scaling_multiplier = 0;  // current adaptive max-size
  heap::HeapStats heap;                  // head-heap instrumentation
};

class CampCache final : public policy::CacheBase,
                        public policy::IRetunable {
 public:
  using Key = policy::Key;

  explicit CampCache(CampConfig config)
      : policy::CacheBase(config.capacity_bytes), config_(config) {
    config_.validate();
  }

  // -- ICache ---------------------------------------------------------------
  bool get(Key key) override {
    ++stats_.gets;
    Entry* e = index_.find(key);
    if (e == nullptr) {
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    touch(*e);
    return true;
  }

  bool put(Key key, std::uint64_t size, std::uint64_t cost) override {
    ++stats_.puts;
    if (size == 0 || size > capacity_) {
      ++stats_.rejected_puts;
      return false;
    }
    // Overwrite semantics: a stale pair leaves its queue and its charge
    // but keeps its index slot, so the key stays indexed (and cannot be a
    // victim) while the loop below evicts.
    Entry* e = index_.find(key);
    if (e != nullptr) {
      detach(*e);
      used_ -= e->size;
    }
    scaler_.observe_size(size);
    const std::uint64_t ratio = rounded_ratio(cost, size);
    while (used_ + size > capacity_) evict_victim();
    if (e == nullptr) {
      e = entry_pool_.acquire();
      e->key = key;
      index_.insert(key, e);
    }
    e->size = size;
    e->cost = cost;
    e->stamp = scaler_.max_size();
    e->h = inflation_ + ratio;
    e->seq = ++seq_;
    append(*e, ratio);
    used_ += size;
    return true;
  }

  [[nodiscard]] bool contains(Key key) const override {
    return index_.find(key) != nullptr;
  }

  void erase(Key key) override {
    Entry* e = index_.find(key);
    if (e == nullptr) return;
    detach(*e);
    used_ -= e->size;
    index_.erase(key);
    entry_pool_.release(e);
  }

  [[nodiscard]] std::size_t item_count() const override {
    return index_.size();
  }

  [[nodiscard]] std::string name() const override {
    if (precision() >= util::kPrecisionInfinity) return "camp(p=inf)";
    return "camp(p=" + std::to_string(precision()) + ")";
  }

  /// Evict the current victim on demand (KVS engine slab pressure).
  bool evict_one() override {
    if (head_heap_.empty()) return false;
    evict_victim();
    return true;
  }

  // -- IRetunable -------------------------------------------------------------
  /// Switch the rounding precision and rebuild the queue topology in place.
  ///
  /// Every resident pair is re-rounded at the new precision and re-appended
  /// in global access order (seq), with its priority refreshed to L + r'.
  /// The rebuilt cache is decision-equivalent to a fresh cache at the new
  /// precision that admitted the same resident set in recency order at a
  /// constant L; the only permitted divergence is the order of (H, seq)
  /// ties, which the rebuild resolves by access recency (documented
  /// queue-order ties — tests/camp_retune_test.cc pins both directions).
  bool retune(int new_precision) override {
    if (new_precision < 1) {
      throw std::invalid_argument(
          "CampCache::retune: precision must be >= 1");
    }
    if (new_precision == config_.precision) return false;
    config_.precision = new_precision;
    rebuild_queues();
    ++intro_.retunes;
    return true;
  }

  /// THE precision accessor: every rounding decision and name() reads the
  /// live value through here (no scattered config copies).
  [[nodiscard]] int precision() const noexcept override {
    return config_.precision;
  }

  [[nodiscard]] std::uint64_t retune_count() const noexcept override {
    return intro_.retunes;
  }

  // -- introspection ----------------------------------------------------------
  /// Key of the pair CAMP would evict next, if any. (Used by the
  /// CAMP-vs-GDS equivalence property tests.)
  [[nodiscard]] std::optional<Key> peek_victim() const {
    if (head_heap_.empty()) return std::nullopt;
    return head_heap_.top().queue->list.front()->key;
  }

  /// Current H value of a resident key (0 if absent).
  [[nodiscard]] std::uint64_t priority_of(Key key) const {
    const Entry* e = index_.find(key);
    return e == nullptr ? 0 : e->h;
  }

  /// Current rounded ratio (queue id) of a resident key (0 if absent).
  [[nodiscard]] std::uint64_t ratio_of(Key key) const {
    const Entry* e = index_.find(key);
    return e == nullptr || e->queue == nullptr ? 0 : e->queue->ratio;
  }

  /// Size / cost of a resident key (0 if absent). The auto-tuner's wrapper
  /// (core/auto_tuner.h) mirrors live hits into the shadow stream with
  /// these, since ICache::get carries no metadata.
  [[nodiscard]] std::uint64_t size_of(Key key) const {
    const Entry* e = index_.find(key);
    return e == nullptr ? 0 : e->size;
  }
  [[nodiscard]] std::uint64_t cost_of(Key key) const {
    const Entry* e = index_.find(key);
    return e == nullptr ? 0 : e->cost;
  }

  [[nodiscard]] CampIntrospection introspect() const {
    CampIntrospection out = intro_;
    out.nonempty_queues = queues_.size();
    out.inflation = inflation_;
    out.scaling_multiplier = scaler_.max_size();
    out.heap = head_heap_.stats();
    return out;
  }

  [[nodiscard]] const CampConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t inflation() const noexcept { return inflation_; }
  [[nodiscard]] std::size_t queue_count() const noexcept {
    return queues_.size();
  }

  /// Structural invariants; exercised by property tests after every
  /// operation sequence. Returns false (rather than asserting) so tests can
  /// report the failing sequence.
  [[nodiscard]] bool check_invariants() {
    if (!head_heap_.check_invariants() || !index_.check_invariants() ||
        !queues_.check_invariants()) {
      return false;
    }
    bool ok = true;
    std::uint64_t bytes = 0;
    std::size_t items = 0;
    queues_.for_each([&](std::uint64_t ratio, Queue* qp) {
      Queue& q = *qp;
      if (q.ratio != ratio || q.list.empty()) {
        ok = false;
        return;
      }
      // Within a queue: strictly increasing (h, seq) from head to tail (seq
      // is globally unique), so the head is the queue's minimum; every entry
      // belongs to this queue. Prop. 1 bounds H. A pair whose stamp is the
      // current max size must round to its queue's ratio (the hit memo).
      bool first = true;
      std::uint64_t prev_h = 0, prev_seq = 0;
      for (Entry& e : q.list) {
        if (e.queue != &q || index_.find(e.key) != &e) ok = false;
        if (!first &&
            (e.h < prev_h || (e.h == prev_h && e.seq <= prev_seq))) {
          ok = false;
        }
        if (e.h < inflation_ || e.h > inflation_ + ratio) ok = false;
        if (e.stamp == scaler_.max_size() &&
            scaler_.scale_and_round(e.cost, e.size, precision()) != ratio) {
          ok = false;
        }
        first = false;
        prev_h = e.h;
        prev_seq = e.seq;
        bytes += e.size;
        ++items;
      }
      // The heap key for this queue must match its head.
      const HeadKey hk = head_heap_.value(q.handle);
      const Entry* head = q.list.front();
      if (hk.h != head->h || hk.seq != head->seq || hk.queue != &q) {
        ok = false;
      }
    });
    if (!ok || bytes != used_ || items != index_.size()) return false;
    if (entry_pool_.live() != index_.size()) return false;
    if (queue_pool_.live() != queues_.size()) return false;
    if (used_ > capacity_) return false;
    return head_heap_.size() == queues_.size();
  }

 private:
  struct Queue;

  struct Entry {
    Key key = 0;
    std::uint64_t size = 0;
    std::uint64_t cost = 0;
    // Scaler max size that queue->ratio (this pair's rounded ratio) was
    // computed with; a hit re-rounds only when max size has moved past it.
    std::uint64_t stamp = 0;
    std::uint64_t h = 0;    // priority = L at last touch + ratio
    std::uint64_t seq = 0;  // global access sequence, for LRU tie-breaks
    Queue* queue = nullptr;  // null only while detached inside put/touch
    intrusive::ListHook hook;
  };
  static_assert(sizeof(Entry) <= 72, "keep a resident pair within 72 bytes");

  struct Queue {
    std::uint64_t ratio = 0;
    intrusive::List<Entry, &Entry::hook> list;
    std::uint32_t handle = 0;  // head-heap handle
  };

  struct HeadKey {
    std::uint64_t h = 0;
    std::uint64_t seq = 0;
    Queue* queue = nullptr;
  };
  struct HeadKeyLess {
    bool operator()(const HeadKey& a, const HeadKey& b) const noexcept {
      if (a.h != b.h) return a.h < b.h;
      return a.seq < b.seq;  // LRU tie-break across queues
    }
  };
  using HeadHeap = heap::DaryHeap<HeadKey, HeadKeyLess, 8>;

  [[nodiscard]] std::uint64_t rounded_ratio(std::uint64_t cost,
                                            std::uint64_t size) {
    const std::uint64_t scaled = scaler_.scale(cost, size);
    if (scaled > intro_.max_scaled_ratio) intro_.max_scaled_ratio = scaled;
    return util::msy_round(scaled, precision());
  }

  /// Retune rebuild: drop every queue and the head heap, then re-append all
  /// resident pairs in access order under the current precision. Priorities
  /// are refreshed to L + r' (L itself never moves here), so Proposition 1
  /// and the within-queue strictly-increasing (h, seq) invariant hold
  /// immediately: within a rebuilt queue all pairs share h = L + r' and seq
  /// is strictly increasing by construction.
  void rebuild_queues() {
    std::vector<Entry*> entries;
    entries.reserve(index_.size());
    index_.for_each([&](Key, Entry* e) { entries.push_back(e); });
    std::sort(entries.begin(), entries.end(),
              [](const Entry* a, const Entry* b) { return a->seq < b->seq; });
    queues_.for_each([&](std::uint64_t, Queue* q) {
      q->list.clear();
      queue_pool_.release(q);
    });
    intro_.queues_destroyed += queues_.size();
    queues_.clear();
    head_heap_.clear();
    for (Entry* e : entries) {
      e->queue = nullptr;
      const std::uint64_t ratio = rounded_ratio(e->cost, e->size);
      e->stamp = scaler_.max_size();
      e->h = inflation_ + ratio;
      append(*e, ratio);
    }
  }

  [[nodiscard]] static HeadKey head_key(Queue& q) {
    const Entry* head = q.list.front();
    return HeadKey{head->h, head->seq, &q};
  }

  /// Unlink an entry from its queue; maintains the head heap and destroys
  /// the queue if it empties. `e.queue` is nulled.
  void detach(Entry& e) {
    Queue& q = *e.queue;
    const bool was_head = (q.list.front() == &e);
    q.list.remove(e);
    e.queue = nullptr;
    if (q.list.empty()) {
      head_heap_.erase(q.handle);
      ++intro_.queues_destroyed;
      queues_.erase(q.ratio);
      queue_pool_.release(&q);  // q is dead after this line
    } else if (was_head) {
      head_heap_.update(q.handle, head_key(q));
    }
  }

  /// Append an entry (h/seq already set) to the queue for `ratio`,
  /// creating the queue (and its heap node) on demand.
  void append(Entry& e, std::uint64_t ratio) {
    Queue* found = queues_.find(ratio);
    const bool created = (found == nullptr);
    if (created) {
      found = queue_pool_.acquire();
      found->ratio = ratio;
      queues_.insert(ratio, found);
    }
    Queue& q = *found;
    q.list.push_back(e);
    e.queue = &q;
    if (created) {
      q.handle = head_heap_.push(head_key(q));
      ++intro_.queues_created;
    }
    // Tail insertion into an existing queue never changes the head: the new
    // (h, seq) is >= every resident pair's because L and seq never decrease.
  }

  /// Apply hit side effects: H(p) <- L + ratio with L = min H over the
  /// *other* resident pairs (Algorithm 1 line 2), then move to MRU position.
  void touch(Entry& e) {
    Queue& q = *e.queue;
    // The ratio is re-rounded with the current scaling multiplier (paper:
    // the adaptively-grown multiplier "is used for all future rounding").
    // The rounding is a pure function of (cost, size, max size, precision),
    // and retune restamps every pair, so a current stamp means the queue's
    // ratio is the answer.
    std::uint64_t new_ratio = q.ratio;
    if (e.stamp != scaler_.max_size()) {
      new_ratio = rounded_ratio(e.cost, e.size);
      e.stamp = scaler_.max_size();
    }
    if (new_ratio == q.ratio) {
      if (q.list.size() > 1) {
        // Stays in a queue with other members: move to the tail in place.
        // Same heap calls as detach + append: one update, only when p was
        // the head, and no queue is destroyed or created.
        const bool was_head = (q.list.front() == &e);
        q.list.move_to_back(e);
        if (was_head) head_heap_.update(q.handle, head_key(q));
        raise_inflation(head_heap_.top().h);
        e.h = inflation_ + new_ratio;
        e.seq = ++seq_;
        return;
      }
      if (head_heap_.top_handle() != q.handle) {
        // p is alone in a queue that is not the global minimum. The
        // minimum over the other pairs is the heap top as-is.
        raise_inflation(head_heap_.top().h);
        e.h = inflation_ + new_ratio;
        e.seq = ++seq_;
        head_heap_.update(q.handle, head_key(q));
        return;
      }
    }
    detach(e);
    if (!head_heap_.empty()) raise_inflation(head_heap_.top().h);
    e.h = inflation_ + new_ratio;
    e.seq = ++seq_;
    append(e, new_ratio);
  }

  void evict_victim() {
    assert(!head_heap_.empty() && "eviction requested from an empty cache");
    Queue& q = *head_heap_.top().queue;
    Entry* victim = q.list.front();
    raise_inflation(victim->h);  // L <- H of the evicted minimum
    const Key vkey = victim->key;
    const std::uint64_t vsize = victim->size;
    detach(*victim);
    index_.erase(vkey);
    entry_pool_.release(victim);
    note_eviction(vkey, vsize);
  }

  void raise_inflation(std::uint64_t candidate) noexcept {
    // Proposition 1 guarantees candidate >= L already; max() keeps the
    // invariant explicit and cheap.
    if (candidate > inflation_) inflation_ = candidate;
  }

  CampConfig config_;
  util::AdaptiveRatioScaler scaler_;
  util::ChunkPool<Entry> entry_pool_;
  util::ChunkPool<Queue> queue_pool_;
  util::FlatTable<Entry> index_;   // key -> resident pair
  util::FlatTable<Queue> queues_;  // rounded ratio -> queue
  HeadHeap head_heap_;
  std::uint64_t inflation_ = 0;  // the GDS global value L
  std::uint64_t seq_ = 0;        // global access counter (LRU tie-breaks)
  CampIntrospection intro_;      // lifetime counters (queues, max ratio)
};

/// Factory used by the sweep driver and the policy registry.
[[nodiscard]] std::unique_ptr<policy::ICache> make_camp(CampConfig config);

}  // namespace camp::core
