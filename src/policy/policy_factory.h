// String-spec factory for eviction policies, used by the sweep driver, the
// examples and the KVS server's command line.
//
// Recognised specs (case-sensitive):
//   "lru"              plain LRU
//   "camp"             CAMP with the paper's defaults (precision 5)
//   "camp:p=<n>"       CAMP with precision n (n >= 64 means no rounding)
//   "camp:p=auto"      self-tuning CAMP: precision picked at runtime by
//                      sampled shadow caches + set dueling (core/auto_tuner.h)
//                      over the default candidate set {1,2,5,64}, starting
//                      at 5
//   "camp:p=auto:candidates=<n>,<n>,..."
//                      self-tuning CAMP over an explicit candidate set,
//                      starting at the first listed candidate
//   "gds"              Greedy Dual Size, arbitrary tie-break
//   "gds:lru"          Greedy Dual Size with LRU tie-break
//
// Any other spec throws std::invalid_argument("... unknown spec ..."), so a
// stale name on a command line or in a config fails closed.
//
// Malformed camp parameters (p=0, non-numeric, trailing garbage,
// unknown key= tokens, duplicates) throw std::invalid_argument with a
// message naming the offending token — never a silent fallback.
//
// Pooled LRU is intentionally absent: its pool plan requires offline trace
// knowledge (see trace::TraceProfiler), so the figures construct it directly
// (figures/factories.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "policy/cache_iface.h"

namespace camp::policy {

/// Build a cache from a spec string. Throws std::invalid_argument on an
/// unknown spec.
[[nodiscard]] std::unique_ptr<ICache> make_policy(const std::string& spec,
                                                  std::uint64_t capacity_bytes);

/// A reusable capacity -> cache factory for `spec`. For most specs this is
/// just a make_policy binding, but for the self-tuning "camp:p=auto..."
/// spec every cache the SAME returned factory builds shares ONE duel state
/// (core::SharedAutoTuner): KvsStore calling it once per engine shard gets
/// shards that register their capacities with, feed, and are migrated by a
/// single tuner, so the psel trace is independent of the shard count.
/// (Calling make_policy per shard instead would duel each shard's
/// partitioned sample stream separately.)
[[nodiscard]] std::function<std::unique_ptr<ICache>(std::uint64_t)>
make_policy_factory(const std::string& spec);

/// All specs make_policy accepts with default parameters; used by help
/// output and the comparison example.
[[nodiscard]] std::vector<std::string> known_policy_specs();

}  // namespace camp::policy
