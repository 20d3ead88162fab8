// Parameter-sweep driver shared by the figures: runs one policy per
// (cache-size-ratio, policy-factory) combination over a fixed trace and
// collects the paper's metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "policy/cache_iface.h"
#include "sim/metrics.h"
#include "trace/record.h"

namespace camp::sim {

/// Builds a fresh cache of `capacity_bytes` for one sweep point.
using CacheFactory =
    std::function<std::unique_ptr<policy::ICache>(std::uint64_t capacity)>;

struct SweepPoint {
  std::string policy;
  double cache_ratio = 0.0;
  std::uint64_t capacity_bytes = 0;
  Metrics metrics;
  policy::CacheStats cache_stats;
};

struct SweepConfig {
  /// Cache size ratios (capacity / unique trace bytes), e.g. the paper's
  /// x-axes. Capacity is max(1, ratio * unique_bytes).
  std::vector<double> cache_ratios;
  std::uint64_t unique_bytes = 0;
};

/// Run `factory`-built caches named `policy_name` over `records` at every
/// ratio in `config`.
[[nodiscard]] std::vector<SweepPoint> run_ratio_sweep(
    const std::vector<trace::TraceRecord>& records, const SweepConfig& config,
    const std::string& policy_name, const CacheFactory& factory);

/// Convenience: capacity for a ratio (shared rounding rule).
[[nodiscard]] std::uint64_t capacity_for_ratio(double ratio,
                                               std::uint64_t unique_bytes);

}  // namespace camp::sim
