// The integer rounding scheme CAMP uses to bound the number of LRU queues
// (Matias, Sahinalp, Young: "Performance Evaluation of Approximate Priority
// Queues", DIMACS 1996), plus the adaptive fraction-to-integer scaler that
// converts cost-to-size ratios into integers before rounding (paper Sec. 2).
#pragma once

#include <cstdint>
#include <limits>

namespace camp::util {

/// Precision value meaning "keep every bit": no rounding beyond the initial
/// integer conversion. Corresponds to the curve labelled "infinity" in
/// Figure 5a, i.e. the standard GDS algorithm.
inline constexpr int kPrecisionInfinity = 64;

/// CAMP's rounding: keep only the `precision` most significant bits of x,
/// starting at its highest non-zero bit; zero the rest. Values whose bit
/// width is <= precision are unchanged. msy_round(0, p) == 0.
///
/// Unlike fixed-point truncation, the absolute rounding error is
/// proportional to the value itself: (x - round(x)) / round(x) <= 2^(1-p).
[[nodiscard]] std::uint64_t msy_round(std::uint64_t x, int precision) noexcept;

/// "Regular" rounding from Table 1: zero the low `drop_bits` bits regardless
/// of magnitude (fixed truncation). Kept for the Table 1 reproduction and
/// the rounding-scheme ablation; it keeps too much information for large
/// values and too little for small ones.
[[nodiscard]] std::uint64_t truncate_low_bits(std::uint64_t x,
                                              int drop_bits) noexcept;

/// Upper bound from Proposition 2 on the number of distinct rounded values
/// when inputs lie in 1..max_value: (ceil(log2(U+1)) - p + 1) * 2^p.
/// For precision >= bit width of U the bound collapses to U itself.
[[nodiscard]] std::uint64_t distinct_rounded_values_bound(
    std::uint64_t max_value, int precision) noexcept;

/// Relative-error bound from Proposition 3: eps = 2^(1-p); for any x > 0,
/// x <= (1 + eps) * msy_round(x, p).
[[nodiscard]] double msy_relative_error_bound(int precision) noexcept;

/// Converts fractional cost-to-size ratios into integers suitable for
/// msy_round. The paper divides each ratio by a lower-bound estimate of the
/// smallest possible ratio; with integer costs >= 1 that lower bound is
/// 1 / max_size, so the conversion multiplies by the largest size observed
/// so far. The multiplier only grows; resident entries are NOT rescaled when
/// it grows (only future roundings use the new value).
class AdaptiveRatioScaler {
 public:
  AdaptiveRatioScaler() = default;

  /// Observe an item size. Returns true when the scaling multiplier grew
  /// (callers may want to know, e.g. for stats; resident entries stay put).
  bool observe_size(std::uint64_t size) noexcept {
    if (size > max_size_) {
      max_size_ = size;
      return true;
    }
    return false;
  }

  /// Scaled integer ratio: round(cost * max_size / size), clamped to >= 1 so
  /// every cached item has a positive priority increment. `size` must be > 0.
  [[nodiscard]] std::uint64_t scale(std::uint64_t cost,
                                    std::uint64_t size) const noexcept {
    // Round-to-nearest of (cost * max_size) / size using integer arithmetic.
    const std::uint64_t num = cost * max_size_;
    const std::uint64_t scaled = (num + size / 2) / size;
    return scaled == 0 ? 1 : scaled;
  }

  /// Scale then apply MSY rounding at `precision` bits.
  [[nodiscard]] std::uint64_t scale_and_round(std::uint64_t cost,
                                              std::uint64_t size,
                                              int precision) const noexcept {
    return msy_round(scale(cost, size), precision);
  }

  [[nodiscard]] std::uint64_t max_size() const noexcept { return max_size_; }

 private:
  std::uint64_t max_size_ = 1;
};

}  // namespace camp::util
