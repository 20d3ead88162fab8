// Span tracer for the benchmark's traced runs.
//
// A span covers one call into a layer (encode_batch, one CommandDecoder::next,
// one KvsStore::get, one ICache::put, one KvsClient::execute, ...). Spans nest
// through a per-thread stack, so a span's parent is the span that was open
// on the same thread when it started — the batch span for everything a
// batch causes. When a span closes, its duration and its self time (the
// duration minus the time its direct children cover) are added to per-thread
// per-name totals; nothing is shared between threads while spans record.
// collect() merges every thread's totals once the run has ended and the
// recording threads have been joined.
//
// With tracing disabled a ScopedSpan is one relaxed atomic load.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace camp::perfbench {

enum class SpanName : std::uint8_t {
  kBatch,          // one batch through the in-process ladder
  kEncode,         // kvs::encode_batch
  kDecode,         // one kvs::CommandDecoder::next call
  kStoreGet,       // kvs::KvsStore::get
  kStoreSet,       // kvs::KvsStore::set
  kFormat,         // one kvs::format_* call
  kPolicyGet,      // policy::ICache::get
  kPolicyPut,      // policy::ICache::put
  kPolicyEvict,    // policy::ICache::evict_one (engine-driven eviction)
  kClientExecute,  // KvsApi::execute as the caller sees it
  kNodeExecute,    // one node's sub-batch under kvs::ClusterClient
  kPeerGet,        // kvs::KvsClient::peer_get probe
  kPeerSet,        // kvs::KvsClient::peer_set probe
  kCount,
};

[[nodiscard]] const char* span_name(SpanName name);

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  /// Per-span durations, kept only for the names whose percentiles are
  /// reported (client and cluster transport spans).
  std::vector<std::uint64_t> samples_ns;

  [[nodiscard]] double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(count);
  }
  [[nodiscard]] double mean_self_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(self_ns) /
                            static_cast<double>(count);
  }
};

using SpanReport =
    std::array<SpanTotals, static_cast<std::size_t>(SpanName::kCount)>;

class Tracer {
 public:
  [[nodiscard]] static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  /// Merge and clear every thread's totals. Call only while no thread is
  /// recording (recording threads joined, or known idle).
  [[nodiscard]] static SpanReport collect();

 private:
  static std::atomic<bool> enabled_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
};

[[nodiscard]] inline const SpanTotals& totals(const SpanReport& report,
                                              SpanName name) {
  return report[static_cast<std::size_t>(name)];
}

}  // namespace camp::perfbench
