// Shared pieces of the layered benchmark: workload definitions, the
// client-side tally every check and end-to-end metric is computed from, the
// closed-loop cache-aside step, and the decorators that put spans around the
// public calls of each layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "kvs/api.h"
#include "kvs/engine.h"
#include "kvs/protocol.h"
#include "kvs/store.h"
#include "policy/cache_iface.h"
#include "spans.h"
#include "trace/record.h"
#include "trace/workloads.h"
#include "util/rng.h"

namespace camp::perfbench {

/// kFull is what the benchmark measures; kTiny shrinks every input for the
/// self-test.
enum class Scale { kFull, kTiny };

enum class Fault { kNone, kFlipHit, kDropSet };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kFull;
  Fault fault = Fault::kNone;
};

/// One named workload's generated inputs. Every value is a pure function of
/// its key (oracle.h); sizes and costs come from the trace generator.
struct Workload {
  std::string name;
  std::unique_ptr<trace::TraceGenerator> gen;  // size_of / cost_of oracles
  std::vector<trace::TraceRecord> requests;
  std::uint64_t unique_bytes = 0;
  /// Ids in [0, key_space) may be requested.
  std::uint64_t key_space = 0;
  /// Ids at or above this are never stored, so a get of one must miss.
  std::uint64_t stored_keys = 0;
  /// Every storable key is set during set-up and must hit; misses are not
  /// refilled. Otherwise callers refill every miss (cache-aside).
  bool preload = false;
  bool compressible = false;
  std::size_t batch_keys = 8;
  /// The timed phase starts at this batch of `requests` (seed-derived).
  std::uint64_t start_batch = 0;
  /// Share of non-cold get hits that are followed by an overwrite of the
  /// same key (with the same, oracle-derived bytes).
  double overwrite_share = 0;

  [[nodiscard]] std::uint32_t size_of(std::uint64_t id) const {
    return gen->size_of(id);
  }
};

/// Builds the named workload from the seed. Throws std::invalid_argument on
/// an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, Scale scale);

/// One timed batch: when it completed, how long it took and how many
/// operations it carried.
struct Timed {
  std::uint64_t end_ns = 0;
  std::uint64_t ns = 0;
  std::uint64_t ops = 0;
};

/// What a client saw, tallied per thread and merged at the end.
struct Tally {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t sets = 0;
  std::uint64_t not_stored = 0;
  std::uint64_t failures = 0;
  std::uint64_t noncold_gets = 0;
  std::uint64_t noncold_hits = 0;
  std::uint64_t noncold_cost = 0;
  std::uint64_t noncold_cost_missed = 0;
  std::uint64_t get_batches = 0;
  std::uint64_t set_batches = 0;
  std::uint64_t sends = 0;
  std::vector<Timed> get_samples;
  std::vector<Timed> set_samples;
  std::string first_failure;

  void fail(const std::string& what) {
    ++failures;
    if (first_failure.empty()) first_failure = what;
  }
  [[nodiscard]] std::uint64_t ops() const { return gets + sets; }
  [[nodiscard]] std::uint64_t batches() const {
    return get_batches + set_batches;
  }
  void merge(const Tally& other);
};

/// First-request detection shared by every client of a run (the paper's
/// cold-request rule).
class SeenSet {
 public:
  explicit SeenSet(std::uint64_t key_space) : seen_(key_space) {}
  /// True the first time `id` is marked.
  bool first(std::uint64_t id) {
    return seen_.at(id).exchange(1, std::memory_order_relaxed) == 0;
  }

 private:
  std::vector<std::atomic<std::uint8_t>> seen_;
};

/// One caller's closed loop: each step sends a get batch, checks every
/// reply against the oracle, then refills misses (and overwrites) with a
/// set batch. Exceptions from the transport count as failures.
class CacheAsideClient {
 public:
  CacheAsideClient(const Workload& w, kvs::KvsApi& api, SeenSet& seen,
                   std::uint64_t rng_seed,
                   std::function<std::uint64_t()> sends = {});

  /// Returns false after a transport exception (the connection state is
  /// unknown, so the caller stops driving it).
  bool step(std::span<const trace::TraceRecord> reqs);

  /// Sets every key in `ids` in one batch, expecting STORED for each.
  bool preload(std::span<const std::uint64_t> ids);

  Tally& tally() { return tally_; }

 private:
  bool run_batch(const kvs::KvsBatch& batch, kvs::KvsBatchResult& out,
                 std::vector<Timed>& samples);
  void add_set(kvs::KvsBatch& batch, std::uint64_t id, std::uint32_t cost);

  const Workload& w_;
  kvs::KvsApi& api_;
  SeenSet& seen_;
  util::Xoshiro256 rng_;
  std::function<std::uint64_t()> sends_;
  std::string scratch_;
  std::string value_;
  Tally tally_;
};

// ---- policy decorator ---------------------------------------------------------

/// Forwards every ICache call to the wrapped policy, with spans around get,
/// put and evict_one.
class TimedPolicy final : public policy::ICache {
 public:
  explicit TimedPolicy(std::unique_ptr<policy::ICache> inner)
      : inner_(std::move(inner)) {}

  bool get(policy::Key key) override {
    ScopedSpan span(SpanName::kPolicyGet);
    return inner_->get(key);
  }
  bool put(policy::Key key, std::uint64_t size, std::uint64_t cost) override {
    ScopedSpan span(SpanName::kPolicyPut);
    return inner_->put(key, size, cost);
  }
  [[nodiscard]] bool contains(policy::Key key) const override {
    return inner_->contains(key);
  }
  void erase(policy::Key key) override { inner_->erase(key); }
  bool evict_one() override {
    ScopedSpan span(SpanName::kPolicyEvict);
    return inner_->evict_one();
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override {
    return inner_->capacity_bytes();
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return inner_->used_bytes();
  }
  [[nodiscard]] std::size_t item_count() const override {
    return inner_->item_count();
  }
  [[nodiscard]] const policy::CacheStats& stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void set_eviction_listener(policy::EvictionListener listener) override {
    inner_->set_eviction_listener(std::move(listener));
  }

  [[nodiscard]] const policy::ICache& inner() const { return *inner_; }

 private:
  std::unique_ptr<policy::ICache> inner_;
};

/// Counters summed over a set of policy instances.
struct PolicySummary {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t heap_visits = 0;
  std::uint64_t queues = 0;
};

[[nodiscard]] PolicySummary summarize(const policy::ICache& cache);

/// Hands TimedPolicy-wrapped CAMP caches to KvsStore engines and remembers
/// them so their counters can be read after the run.
class PolicySet {
 public:
  PolicySet() = default;
  PolicySet(const PolicySet&) = delete;
  PolicySet& operator=(const PolicySet&) = delete;

  [[nodiscard]] kvs::PolicyFactory factory();
  /// Call only after the stores built through factory() are quiet.
  [[nodiscard]] PolicySummary summary() const;

 private:
  mutable std::mutex mutex_;
  std::vector<const TimedPolicy*> caches_;
};

// ---- transport decorators -------------------------------------------------------

/// A span around every execute of the wrapped transport.
class SpanApi final : public kvs::KvsApi {
 public:
  SpanApi(kvs::KvsApi& inner, SpanName name) : inner_(inner), name_(name) {}
  [[nodiscard]] kvs::KvsBatchResult execute(
      const kvs::KvsBatch& batch) override {
    ScopedSpan span(name_);
    return inner_.execute(batch);
  }

 private:
  kvs::KvsApi& inner_;
  SpanName name_;
};

/// Checker self-test: corrupts exactly one reply (flips a byte of one hit)
/// or silently drops exactly one set while reporting it stored. Either
/// must make the run's checks fail.
class FaultApi final : public kvs::KvsApi {
 public:
  FaultApi(kvs::KvsApi& inner, Fault fault) : inner_(inner), fault_(fault) {}
  [[nodiscard]] kvs::KvsBatchResult execute(
      const kvs::KvsBatch& batch) override;

 private:
  kvs::KvsApi& inner_;
  Fault fault_;
  bool fired_ = false;
};

// ---- in-process ladder ------------------------------------------------------------

/// The single-thread in-process replay of the server's request path:
/// encode_batch -> CommandDecoder::feed/next -> KvsStore -> format_*, with a
/// span around each call under one batch span. Results are built from the
/// store's answers, so the same checks as over TCP apply.
class LadderApi final : public kvs::KvsApi {
 public:
  struct Counters {
    std::uint64_t batches = 0;
    std::uint64_t ops = 0;
    std::uint64_t commands = 0;
    std::uint64_t replies = 0;
    std::uint64_t request_bytes = 0;
    std::uint64_t reply_bytes = 0;
  };

  explicit LadderApi(kvs::KvsStore& store) : store_(store) {}
  [[nodiscard]] kvs::KvsBatchResult execute(
      const kvs::KvsBatch& batch) override;
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  kvs::KvsStore& store_;
  Counters counters_;
  kvs::CommandDecoder decoder_;
  std::string reply_;
};

// ---- results ------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::uint64_t samples = 0;  // latency sample count (0 = not a latency)
};

struct RunResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed checks, in order found
  std::vector<std::string> notes;     // passed named checks, for the log

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void set(const std::string& name, double value, std::uint64_t samples = 0) {
    metrics[name] = Metric{value, samples};
  }
};

/// Runs one workload (setup, measurement, checks) and fills the metrics of
/// the requested kind: end-to-end ones untraced, per-layer ones traced.
[[nodiscard]] RunResult run_workload(const Options& options);

/// Half-width of the rank band a percentile averages over.
inline constexpr double kPercentileBand = 0.005;

/// The q-quantile of `values` (sorted in place), taken as the mean of the
/// samples ranked within q +/- kPercentileBand, so a latency read from a
/// 1 ns clock is not quantised to that clock's step.
[[nodiscard]] double percentile(std::vector<std::uint64_t>& values, double q);
[[nodiscard]] double median(std::vector<double> values);

}  // namespace camp::perfbench
