// Intrusive doubly-linked list used for every LRU queue in the repository.
//
// Entries embed a ListHook; splice/remove are O(1) and allocation-free, which
// is what makes CAMP's common case (a hit that does not change a queue head)
// a constant-time pointer update, mirroring the production implementations
// the paper targets (memcached/twemcache item links).
#pragma once

#include <cassert>
#include <cstddef>

namespace camp::intrusive {

struct ListHook {
  ListHook* prev = nullptr;
  ListHook* next = nullptr;

  [[nodiscard]] bool is_linked() const noexcept { return prev != nullptr; }
};

/// Circular intrusive list. T must derive from ListHook or embed one
/// reachable via the HookOf functor. Does not own its elements.
template <class T, ListHook T::* Hook>
class List {
 public:
  List() noexcept { reset(); }
  List(const List&) = delete;
  List& operator=(const List&) = delete;
  ~List() = default;  // elements are not owned

  [[nodiscard]] bool empty() const noexcept { return head_.next == &head_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Most-recently linked end ("tail" = MRU for LRU queues).
  void push_back(T& item) noexcept {
    ListHook& h = item.*Hook;
    assert(!h.is_linked());
    insert_before(&head_, &h);
    ++size_;
  }

  /// Least-recently linked end ("front" = LRU victim end).
  void push_front(T& item) noexcept {
    ListHook& h = item.*Hook;
    assert(!h.is_linked());
    insert_before(head_.next, &h);
    ++size_;
  }

  void remove(T& item) noexcept {
    ListHook& h = item.*Hook;
    assert(h.is_linked());
    h.prev->next = h.next;
    h.next->prev = h.prev;
    h.prev = h.next = nullptr;
    --size_;
  }

  /// O(1) "touch": move to the MRU end.
  void move_to_back(T& item) noexcept {
    remove(item);
    push_back(item);
  }

  [[nodiscard]] T* front() noexcept {
    return empty() ? nullptr : owner(head_.next);
  }
  [[nodiscard]] const T* front() const noexcept {
    return empty() ? nullptr : owner(head_.next);
  }
  [[nodiscard]] T* back() noexcept {
    return empty() ? nullptr : owner(head_.prev);
  }
  [[nodiscard]] const T* back() const noexcept {
    return empty() ? nullptr : owner(head_.prev);
  }

  T* pop_front() noexcept {
    T* f = front();
    if (f != nullptr) remove(*f);
    return f;
  }

  /// Drop all links without touching elements (they become unlinked).
  void clear() noexcept {
    ListHook* cur = head_.next;
    while (cur != &head_) {
      ListHook* next = cur->next;
      cur->prev = cur->next = nullptr;
      cur = next;
    }
    reset();
  }

  /// Forward iteration, front (LRU) to back (MRU).
  class iterator {
   public:
    explicit iterator(ListHook* node) noexcept : node_(node) {}
    T& operator*() const noexcept { return *owner(node_); }
    T* operator->() const noexcept { return owner(node_); }
    iterator& operator++() noexcept {
      node_ = node_->next;
      return *this;
    }
    bool operator==(const iterator& o) const noexcept = default;

   private:
    ListHook* node_;
  };

  [[nodiscard]] iterator begin() noexcept { return iterator(head_.next); }
  [[nodiscard]] iterator end() noexcept { return iterator(&head_); }

 private:
  static void insert_before(ListHook* pos, ListHook* h) noexcept {
    h->prev = pos->prev;
    h->next = pos;
    pos->prev->next = h;
    pos->prev = h;
  }

  // Recover T* from the embedded hook (container_of). The offset of a member
  // designated by a member pointer is read off a T-aligned buffer that is
  // constant-initialised, so no call pays a thread-safe-static guard (and
  // the compiler folds the whole computation to a constant).
  static std::ptrdiff_t hook_offset() noexcept {
    alignas(T) static constexpr char probe[sizeof(T)] = {};
    const T* t = reinterpret_cast<const T*>(probe);
    return reinterpret_cast<const char*>(&(t->*Hook)) - probe;
  }
  static T* owner(ListHook* h) noexcept {
    return reinterpret_cast<T*>(reinterpret_cast<char*>(h) - hook_offset());
  }
  static const T* owner(const ListHook* h) noexcept {
    return owner(const_cast<ListHook*>(h));
  }

  void reset() noexcept {
    head_.prev = head_.next = &head_;
    size_ = 0;
  }

  ListHook head_;
  std::size_t size_ = 0;
};

}  // namespace camp::intrusive
