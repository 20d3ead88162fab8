// String-key hashing shared by the KVS layers, so a key is hashed one way
// everywhere: FNV-1a for stable routing ids, and FNV-1a finished with
// mix64 where the bits feed a modulus or a table index.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/rng.h"

namespace camp::util {

/// 64-bit FNV-1a. Stable across builds and platforms: the cluster ring and
/// external-trace key ids are derived from it.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // FNV prime
  }
  return h;
}

/// The KVS key hash: FNV-1a finished with a strong mix. KvsStore picks a
/// key's shard from it and KvsEngine indexes the key's item under it.
[[nodiscard]] constexpr std::uint64_t key_hash(std::string_view key) noexcept {
  return mix64(fnv1a64(key));
}

}  // namespace camp::util
