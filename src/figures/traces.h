// Deterministic trace provider for the figure-regeneration pipeline.
//
// Every trace a figure consumes is identified by an explicit
// (kind, scale, seed) triple — there is no hidden global state, no
// environment sniffing, and no implicit seed, so two `camp_figures` runs
// with the same options are byte-identical. Bundles are memoised process-
// wide (keyed by the full triple) so several figures sharing one trace pay
// for generation once; the memo is a pure cache and never changes results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.h"

namespace camp::figures {

/// Named request-volume presets. `smoke` is 1/10th of the paper (the CI
/// and committed-baseline scale), `paper` is the full 4M-row scale, `tiny`
/// is for golden-file tests that must run in well under a second.
struct Scale {
  std::string name;             // "smoke" | "paper" | "tiny"
  std::uint64_t num_keys = 0;   // simulator traces
  std::uint64_t num_requests = 0;
  std::uint64_t kvs_keys = 0;   // Figure 9 KVS replay (smaller footprint)
  std::uint64_t kvs_requests = 0;

  [[nodiscard]] static Scale smoke();
  [[nodiscard]] static Scale paper();
  [[nodiscard]] static Scale tiny();
};

/// The workload families used by the paper's figures.
enum class TraceKind {
  kDefault,   // Sections 3/3.1: lognormal sizes, {1,100,10K} costs
  kVarSize,   // Figure 7: variable sizes, cost = 1
  kEquiSize,  // Figure 8: equal sizes, continuous (lognormal) costs
  kPhased,    // Section 3.1: ten back-to-back disjoint-key-space traces
  kKvs,       // Figure 9: KVS-sized values (<= 8 KiB)
};

[[nodiscard]] const char* trace_kind_name(TraceKind kind);

/// Canonical base seed for the paper figures.
inline constexpr std::uint64_t kCanonicalSeed = 2014;

/// Per-kind seed derivation: each workload family draws from a distinct
/// seed so figures never alias each other's randomness. With the canonical
/// base this gives the committed baselines' seeds (2014..2017).
[[nodiscard]] std::uint64_t seed_for(TraceKind kind, std::uint64_t base_seed);

struct TraceBundle {
  std::vector<trace::TraceRecord> records;
  /// Sum of unique key sizes — the denominator of the paper's cache size
  /// ratio. For phased traces this is ONE phase's footprint (the paper's
  /// ratios are relative to a single trace file).
  std::uint64_t unique_bytes = 0;
  std::uint64_t seed = 0;  // the derived per-kind seed actually used
};

/// Generate a bundle (uncached). `seed` is the per-kind seed, normally
/// `seed_for(kind, base)`.
[[nodiscard]] TraceBundle make_trace(TraceKind kind, const Scale& scale,
                                     std::uint64_t seed);

/// Memoised variant: same arguments return the same shared bundle. Safe to
/// call from multiple threads. The returned reference stays valid until
/// trim_shared_traces() evicts the bundle — callers hold it only while no
/// trim can run (one figure point).
[[nodiscard]] const TraceBundle& shared_trace(TraceKind kind,
                                              const Scale& scale,
                                              std::uint64_t seed);

/// Evict all but the `keep_most_recent` most recently used bundles. The
/// FigureRunner calls this between figures so an all-figures run at
/// `--scale paper` never holds every workload family (~1.3 GB) at once;
/// only call it when no shared_trace reference is live.
void trim_shared_traces(std::size_t keep_most_recent);

}  // namespace camp::figures
