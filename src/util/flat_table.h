// Allocation-free building blocks for per-pair state (core::CampCache's
// pairs and queues, kvs::KvsEngine's resident items):
//
//   * ChunkPool<T>  — stable-address storage for T in fixed-size chunks,
//     with a free list. Released objects are recycled before a new chunk
//     is allocated, so once the live count has peaked the pool allocates
//     nothing. Intrusive links and raw pointers into pooled objects stay
//     valid for the object's whole life (chunks never move or shrink).
//   * FlatTable<T>  — an open-addressing map from a 64-bit key to a T*.
//     Power-of-two size, multiplicative (Fibonacci) hashing on the high
//     bits, linear probing, backward-shift erase (no tombstones), and
//     growth by doubling when an insert would push the load above 1/2.
//     No probe divides; every key value, 0 included, is a valid key (an
//     empty slot is marked by a null value, not by a reserved key).
//     A table keyed by a hash of some longer key may hold several members
//     under one 64-bit key (insert_multi); find_if confirms the member
//     against the full key and erase_value removes exactly one of them.
//
// Neither shrinks: both keep their high-water capacity, which is what makes
// a cache that churns at a steady resident count allocation-free.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace camp::util {

template <class T>
class ChunkPool {
 public:
  /// Objects per chunk: about 16 KiB of T, at least one.
  static constexpr std::size_t kChunkObjects =
      std::max<std::size_t>(1, 16384 / sizeof(T));

  ChunkPool() = default;
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  /// A default-constructed T on first use, else the most recently released
  /// object exactly as it was released (callers reset the fields they use).
  [[nodiscard]] T* acquire() {
    if (!free_.empty()) {
      T* p = free_.back();
      free_.pop_back();
      return p;
    }
    if (next_ == kChunkObjects) {
      chunks_.push_back(std::make_unique<T[]>(kChunkObjects));
      next_ = 0;
    }
    return &chunks_.back()[next_++];
  }

  void release(T* p) {
    assert(p != nullptr);
    free_.push_back(p);
  }

  /// Objects ever carved out of chunks (live + free).
  [[nodiscard]] std::size_t allocated() const noexcept {
    return chunks_.empty() ? 0
                           : (chunks_.size() - 1) * kChunkObjects + next_;
  }
  [[nodiscard]] std::size_t live() const noexcept {
    return allocated() - free_.size();
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t next_ = kChunkObjects;  // next unused object in chunks_.back()
  std::vector<T*> free_;
};

template <class T>
class FlatTable {
 public:
  using Key = std::uint64_t;
  static constexpr std::size_t kMinCapacity = 16;

  FlatTable() { reset(kMinCapacity); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Home slot of `key`: the top log2(capacity) bits of key * 2^64/phi.
  [[nodiscard]] std::size_t home(Key key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  [[nodiscard]] T* find(Key key) const noexcept {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.value == nullptr) return nullptr;
      if (s.key == key) return s.value;
    }
  }

  /// The first member under `key` whose value satisfies `pred`, probing
  /// past members with an equal key that do not; null if there is none.
  template <class Pred>
  [[nodiscard]] T* find_if(Key key, Pred&& pred) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.value == nullptr) return nullptr;
      if (s.key == key && pred(static_cast<const T*>(s.value))) {
        return s.value;
      }
    }
  }

  /// Insert a key that is not present. `value` must be non-null.
  void insert(Key key, T* value) {
    assert(find(key) == nullptr);
    insert_multi(key, value);
  }

  /// Insert `value` under `key` beside any members already holding that
  /// key. `value` must be non-null.
  void insert_multi(Key key, T* value) {
    assert(value != nullptr);
    if (2 * (size_ + 1) > capacity()) grow();
    place(key, value);
    ++size_;
  }

  /// Remove `key`; returns false if it was absent. Later members of the
  /// probe run shift back into the hole, so lookups never see a gap.
  bool erase(Key key) noexcept {
    std::size_t i = home(key);
    for (;; i = (i + 1) & mask_) {
      if (slots_[i].value == nullptr) return false;
      if (slots_[i].key == key) break;
    }
    erase_slot(i);
    return true;
  }

  /// Remove the one member (`key`, `value`); returns false if it is absent.
  /// Other members under `key` stay.
  bool erase_value(Key key, const T* value) noexcept {
    std::size_t i = home(key);
    for (;; i = (i + 1) & mask_) {
      if (slots_[i].value == nullptr) return false;
      if (slots_[i].value == value && slots_[i].key == key) break;
    }
    erase_slot(i);
    return true;
  }

  /// Empty the table; the capacity is kept.
  void clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  /// f(key, value) for every member, in slot order.
  template <class F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.value != nullptr) f(s.key, s.value);
    }
  }

  /// Every member is reachable from its home slot without crossing an
  /// empty slot, the count matches, and the load is at most 1/2.
  [[nodiscard]] bool check_invariants() const {
    std::size_t n = 0;
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      if (slots_[j].value == nullptr) continue;
      ++n;
      for (std::size_t i = home(slots_[j].key); i != j; i = (i + 1) & mask_) {
        if (slots_[i].value == nullptr) return false;
      }
    }
    return n == size_ && 2 * size_ <= capacity();
  }

 private:
  struct Slot {
    Key key = 0;
    T* value = nullptr;  // null marks an empty slot
  };

  /// Empty the occupied slot `i`, shifting later members of its probe run
  /// back so none is left behind a gap.
  void erase_slot(std::size_t i) noexcept {
    for (std::size_t j = i;;) {
      j = (j + 1) & mask_;
      if (slots_[j].value == nullptr) break;
      // The member at j may fill the hole at i unless its home lies
      // cyclically in (i, j].
      if (((j - home(slots_[j].key)) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].value = nullptr;
    --size_;
  }

  void reset(std::size_t capacity) {
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
  }

  void place(Key key, T* value) noexcept {
    std::size_t i = home(key);
    while (slots_[i].value != nullptr) i = (i + 1) & mask_;
    slots_[i] = Slot{key, value};
  }

  void grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    reset(2 * old.size());
    for (const Slot& s : old) {
      if (s.value != nullptr) place(s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace camp::util
