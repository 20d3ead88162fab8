#include "figures/traces.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "trace/workloads.h"

namespace camp::figures {

Scale Scale::smoke() {
  Scale s;
  s.name = "smoke";
  s.num_keys = 40'000;
  s.num_requests = 400'000;
  s.kvs_keys = 12'000;
  s.kvs_requests = 60'000;
  return s;
}

Scale Scale::paper() {
  Scale s;
  s.name = "paper";
  s.num_keys = 400'000;
  s.num_requests = 4'000'000;
  s.kvs_keys = 60'000;
  s.kvs_requests = 1'000'000;
  return s;
}

Scale Scale::tiny() {
  Scale s;
  s.name = "tiny";
  s.num_keys = 400;
  s.num_requests = 6'000;
  s.kvs_keys = 200;
  s.kvs_requests = 2'000;
  return s;
}

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kDefault:
      return "default";
    case TraceKind::kVarSize:
      return "varsize";
    case TraceKind::kEquiSize:
      return "equisize";
    case TraceKind::kPhased:
      return "phased";
    case TraceKind::kKvs:
      return "kvs";
  }
  return "unknown";
}

std::uint64_t seed_for(TraceKind kind, std::uint64_t base_seed) {
  switch (kind) {
    case TraceKind::kDefault:
      return base_seed;
    case TraceKind::kVarSize:
      return base_seed + 1;
    case TraceKind::kEquiSize:
      return base_seed + 2;
    case TraceKind::kPhased:
      return base_seed + 3;
    case TraceKind::kKvs:
      return base_seed + 4;
  }
  return base_seed;
}

TraceBundle make_trace(TraceKind kind, const Scale& scale,
                       std::uint64_t seed) {
  TraceBundle bundle;
  bundle.seed = seed;
  switch (kind) {
    case TraceKind::kDefault: {
      trace::TraceGenerator gen(
          trace::bg_default(scale.num_keys, scale.num_requests, seed));
      bundle.records = gen.generate();
      bundle.unique_bytes = gen.unique_bytes();
      break;
    }
    case TraceKind::kVarSize: {
      trace::TraceGenerator gen(trace::bg_variable_size_fixed_cost(
          scale.num_keys, scale.num_requests, seed));
      bundle.records = gen.generate();
      bundle.unique_bytes = gen.unique_bytes();
      break;
    }
    case TraceKind::kEquiSize: {
      trace::TraceGenerator gen(trace::bg_equal_size_variable_cost(
          scale.num_keys, scale.num_requests, seed));
      bundle.records = gen.generate();
      bundle.unique_bytes = gen.unique_bytes();
      break;
    }
    case TraceKind::kPhased: {
      const auto base =
          trace::bg_default(scale.num_keys, scale.num_requests, seed);
      bundle.records = trace::generate_phased(base, 10);
      trace::TraceGenerator gen(base);
      bundle.unique_bytes = gen.unique_bytes();
      break;
    }
    case TraceKind::kKvs: {
      // KVS-sized values (<= 8 KiB) so the slab-class spread stays modest
      // relative to the smallest cache sizes in the Figure 9 sweep.
      auto config =
          trace::bg_default(scale.kvs_keys, scale.kvs_requests, seed);
      config.size_model =
          trace::SizeModel::log_normal(6.9, 0.7, 128, 8 * 1024);
      trace::TraceGenerator gen(config);
      bundle.records = gen.generate();
      bundle.unique_bytes = gen.unique_bytes();
      break;
    }
  }
  if (bundle.records.empty()) {
    throw std::runtime_error("figures: empty trace bundle");
  }
  return bundle;
}

namespace {

using MemoKey = std::tuple<int, std::uint64_t, std::uint64_t, std::uint64_t,
                           std::uint64_t, std::uint64_t>;

struct MemoEntry {
  MemoKey key;
  std::unique_ptr<TraceBundle> bundle;
};

std::mutex& memo_mutex() {
  static std::mutex mutex;
  return mutex;
}

/// Most-recently-used first; trimmed between figures by the runner.
std::vector<MemoEntry>& memo() {
  static std::vector<MemoEntry> entries;
  return entries;
}

}  // namespace

const TraceBundle& shared_trace(TraceKind kind, const Scale& scale,
                                std::uint64_t seed) {
  const MemoKey key{static_cast<int>(kind), scale.num_keys,
                    scale.num_requests,     scale.kvs_keys,
                    scale.kvs_requests,     seed};
  std::lock_guard<std::mutex> guard(memo_mutex());
  auto& entries = memo();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].key != key) continue;
    std::rotate(entries.begin(), entries.begin() + i,
                entries.begin() + i + 1);  // move to front
    return *entries.front().bundle;
  }
  entries.insert(entries.begin(),
                 MemoEntry{key, std::make_unique<TraceBundle>(
                                    make_trace(kind, scale, seed))});
  return *entries.front().bundle;
}

void trim_shared_traces(std::size_t keep_most_recent) {
  std::lock_guard<std::mutex> guard(memo_mutex());
  auto& entries = memo();
  if (entries.size() > keep_most_recent) {
    entries.resize(keep_most_recent);
  }
}

}  // namespace camp::figures
