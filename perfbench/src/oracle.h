// Output oracle: every value the benchmark stores is a pure function of its
// key, so any hit can be checked byte for byte no matter how client threads,
// server workers and cluster peers interleave.
//
//   key    "k<id>"
//   size   the workload's size_of(id) (trace::TraceGenerator)
//   bytes  a stream seeded by the id; for compressible workloads three keys
//          in four get run-length structured bytes the engine's codecs can
//          shrink, the fourth stays random so the compression bail-out path
//          runs too
//   flags  a check tag derived from the id
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace camp::perfbench {

[[nodiscard]] inline std::string key_name(std::uint64_t id) {
  char buf[24] = {'k'};
  const auto [end, ec] = std::to_chars(buf + 1, buf + sizeof buf, id);
  return std::string(buf, end);
}

[[nodiscard]] inline std::optional<std::uint64_t> key_id(std::string_view key) {
  if (key.size() < 2 || key[0] != 'k') return std::nullopt;
  std::uint64_t id = 0;
  const auto [end, ec] =
      std::from_chars(key.data() + 1, key.data() + key.size(), id);
  if (ec != std::errc{} || end != key.data() + key.size()) return std::nullopt;
  return id;
}

[[nodiscard]] inline std::uint32_t flags_tag(std::uint64_t id) {
  return static_cast<std::uint32_t>(util::mix64(id ^ 0xf1a95ull) >> 32);
}

/// Writes the value of key `id` into `out` (resized to `size`).
inline void fill_value(std::uint64_t id, std::uint32_t size,
                       bool compressible, std::string& out) {
  out.resize(size);
  std::uint64_t state = util::mix64(id ^ 0x5eed0fa1ull);
  auto next = [&state] {
    state += 0x9e3779b97f4a7c15ull;
    return util::mix64(state);
  };
  const bool runs = compressible && (util::mix64(id) & 3u) != 0;
  std::size_t i = 0;
  if (runs) {
    while (i < size) {
      const std::uint64_t r = next();
      const std::size_t len = std::min<std::size_t>(2 + (r >> 8) % 8,
                                                    size - i);
      std::memset(out.data() + i, static_cast<int>(r & 0xff), len);
      i += len;
    }
    return;
  }
  for (; i + 8 <= size; i += 8) {
    const std::uint64_t r = next();
    std::memcpy(out.data() + i, &r, 8);
  }
  if (i < size) {
    const std::uint64_t r = next();
    std::memcpy(out.data() + i, &r, size - i);
  }
}

/// True when `got` is exactly the value of key `id`. `scratch` is reused
/// between calls to avoid an allocation per check.
[[nodiscard]] inline bool value_matches(std::uint64_t id, std::uint32_t size,
                                        bool compressible,
                                        std::string_view got,
                                        std::string& scratch) {
  if (got.size() != size) return false;
  fill_value(id, size, compressible, scratch);
  return got == std::string_view(scratch);
}

}  // namespace camp::perfbench
