#include "util/lock_rank.h"

#if !defined(NDEBUG)

#include <cstdio>
#include <cstdlib>

namespace camp::util::lock_rank {

namespace {

// A fixed-capacity per-thread stack: no heap traffic on the lock path and
// no destructor-order hazards at thread exit. Deeper nesting than this is
// itself a discipline bug.
constexpr std::size_t kMaxHeld = 32;

struct HeldStack {
  LockRank ranks[kMaxHeld];
  std::size_t size = 0;
};

thread_local HeldStack held;

[[noreturn]] void die(const char* what, LockRank a, LockRank b) noexcept {
  std::fprintf(stderr,
               "lock_rank: %s (rank %d while holding rank %d); "
               "lock hierarchy violated, aborting\n",
               what, static_cast<int>(a), static_cast<int>(b));
  std::abort();
}

}  // namespace

void acquired(LockRank rank) noexcept {
  if (held.size > 0) {
    const LockRank top = held.ranks[held.size - 1];
    if (rank <= top) {
      die("rank inversion", rank, top);
    }
  }
  if (held.size == kMaxHeld) {
    std::fprintf(stderr, "lock_rank: more than %zu locks held\n", kMaxHeld);
    std::abort();
  }
  held.ranks[held.size++] = rank;
}

void released(LockRank rank) noexcept {
  // Scoped wrappers release LIFO, but search downward anyway so an early
  // unlock of an outer lock cannot misreport an inversion.
  for (std::size_t i = held.size; i-- > 0;) {
    if (held.ranks[i] == rank) {
      for (std::size_t j = i + 1; j < held.size; ++j) {
        held.ranks[j - 1] = held.ranks[j];
      }
      --held.size;
      return;
    }
  }
  std::fprintf(stderr, "lock_rank: released rank %d that is not held\n",
               static_cast<int>(rank));
  std::abort();
}

std::size_t held_count() noexcept { return held.size; }

}  // namespace camp::util::lock_rank

#endif  // !defined(NDEBUG)
