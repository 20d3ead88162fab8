// Cache factories for the figure series of the FigureSpec registry.
#pragma once

#include <string>
#include <vector>

#include "sim/sweep.h"
#include "trace/record.h"

namespace camp::figures {

[[nodiscard]] sim::CacheFactory lru_factory();
[[nodiscard]] sim::CacheFactory gds_factory();
[[nodiscard]] sim::CacheFactory camp_factory(int precision);
/// Self-tuning CAMP with the default AutoTunerConfig (core/auto_tuner.h):
/// each cache instance duels its own shadow set and retunes itself.
[[nodiscard]] sim::CacheFactory camp_auto_factory();

/// The paper's cost-proportional Pooled LRU built from an offline profile
/// (pools by exact cost value, capacity proportional to request cost mass).
[[nodiscard]] sim::CacheFactory pooled_cost_factory(
    const std::vector<trace::TraceRecord>& records);

/// Uniform-partition Pooled LRU (the paper's other plan).
[[nodiscard]] sim::CacheFactory pooled_uniform_factory(
    const std::vector<trace::TraceRecord>& records);

/// Section 3.2's range-based Pooled LRU: ranges [1,100), [100,10K),
/// [10K,+inf), capacities proportional to each range's lowest cost value.
[[nodiscard]] sim::CacheFactory pooled_range_factory();

/// Factory for a figure series name: "lru", "gds", "camp-p5" (any
/// precision suffix), "camp-auto", "pooled-cost", "pooled-uniform",
/// "pooled-range".
/// `records` feeds the profile-driven pooled plans. Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] sim::CacheFactory series_factory(
    const std::string& series, const std::vector<trace::TraceRecord>& records);

}  // namespace camp::figures
