// Client-side step, decorators and the in-process ladder (bench.h).
#include <algorithm>
#include <stdexcept>

#include "bench.h"
#include "core/camp.h"
#include "oracle.h"
#include "policy/policy_factory.h"

namespace camp::perfbench {

void Tally::merge(const Tally& o) {
  gets += o.gets;
  hits += o.hits;
  sets += o.sets;
  not_stored += o.not_stored;
  failures += o.failures;
  noncold_gets += o.noncold_gets;
  noncold_hits += o.noncold_hits;
  noncold_cost += o.noncold_cost;
  noncold_cost_missed += o.noncold_cost_missed;
  get_batches += o.get_batches;
  set_batches += o.set_batches;
  sends += o.sends;
  get_samples.insert(get_samples.end(), o.get_samples.begin(),
                     o.get_samples.end());
  set_samples.insert(set_samples.end(), o.set_samples.begin(),
                     o.set_samples.end());
  if (first_failure.empty()) first_failure = o.first_failure;
}

double percentile(std::vector<std::uint64_t>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double last = static_cast<double>(values.size() - 1);
  auto rank = [last](double p) {
    return static_cast<std::size_t>(std::clamp(p, 0.0, 1.0) * last + 0.5);
  };
  const std::size_t lo = rank(q - kPercentileBand);
  const std::size_t hi = rank(q + kPercentileBand);
  double sum = 0;
  for (std::size_t i = lo; i <= hi; ++i) sum += static_cast<double>(values[i]);
  return sum / static_cast<double>(hi - lo + 1);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// ---- CacheAsideClient ----------------------------------------------------------

CacheAsideClient::CacheAsideClient(const Workload& w, kvs::KvsApi& api,
                                   SeenSet& seen, std::uint64_t rng_seed,
                                   std::function<std::uint64_t()> sends)
    : w_(w), api_(api), seen_(seen), rng_(rng_seed), sends_(std::move(sends)) {}

bool CacheAsideClient::run_batch(const kvs::KvsBatch& batch,
                                 kvs::KvsBatchResult& out,
                                 std::vector<Timed>& samples) {
  const std::uint64_t sends_before = sends_ ? sends_() : 0;
  const std::uint64_t start = now_ns();
  try {
    out = api_.execute(batch);
  } catch (const std::exception& e) {
    tally_.fail(std::string("transport: ") + e.what());
    return false;
  }
  const std::uint64_t end = now_ns();
  samples.push_back(Timed{end, end - start, batch.size()});
  if (sends_) tally_.sends += sends_() - sends_before;
  if (out.size() != batch.size()) {
    tally_.fail("reply count does not match the batch");
    return false;
  }
  return true;
}

void CacheAsideClient::add_set(kvs::KvsBatch& batch, std::uint64_t id,
                               std::uint32_t cost) {
  fill_value(id, w_.size_of(id), w_.compressible, value_);
  batch.add_set(key_name(id), value_, flags_tag(id), cost);
}

bool CacheAsideClient::step(std::span<const trace::TraceRecord> reqs) {
  kvs::KvsBatch gets;
  gets.reserve(reqs.size());
  for (const trace::TraceRecord& r : reqs) gets.add_get(key_name(r.key));
  kvs::KvsBatchResult got;
  ++tally_.get_batches;
  if (!run_batch(gets, got, tally_.get_samples)) return false;

  kvs::KvsBatch sets;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const trace::TraceRecord& r = reqs[i];
    const kvs::KvsOpResult& res = got[i];
    const bool cold = seen_.first(r.key);
    const bool storable = r.key < w_.stored_keys;
    ++tally_.gets;
    if (res.ok) {
      ++tally_.hits;
      if (!storable) {
        tally_.fail("hit on a key that is never stored: " + key_name(r.key));
      } else if (res.flags != flags_tag(r.key) ||
                 !value_matches(r.key, w_.size_of(r.key), w_.compressible,
                                res.value, scratch_)) {
        tally_.fail("wrong bytes for " + key_name(r.key));
      }
    } else if (w_.preload && storable) {
      tally_.fail("miss on a preloaded key: " + key_name(r.key));
    }
    if (!cold) {
      ++tally_.noncold_gets;
      tally_.noncold_cost += r.cost;
      if (res.ok) {
        ++tally_.noncold_hits;
      } else {
        tally_.noncold_cost_missed += r.cost;
      }
    }
    if (!res.ok && !w_.preload && storable) {
      add_set(sets, r.key, r.cost);
    } else if (res.ok && !cold && w_.overwrite_share > 0 &&
               rng_.uniform() < w_.overwrite_share) {
      add_set(sets, r.key, r.cost);
    }
  }
  if (sets.empty()) return true;
  kvs::KvsBatchResult stored;
  ++tally_.set_batches;
  if (!run_batch(sets, stored, tally_.set_samples)) return false;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    ++tally_.sets;
    if (!stored[i].ok) ++tally_.not_stored;
  }
  return true;
}

bool CacheAsideClient::preload(std::span<const std::uint64_t> ids) {
  kvs::KvsBatch sets;
  sets.reserve(ids.size());
  for (std::uint64_t id : ids) add_set(sets, id, w_.gen->cost_of(id));
  kvs::KvsBatchResult stored;
  ++tally_.set_batches;
  if (!run_batch(sets, stored, tally_.set_samples)) return false;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    ++tally_.sets;
    if (!stored[i].ok) {
      ++tally_.not_stored;
      tally_.fail("preload set refused: " + sets[i].key);
    }
  }
  return true;
}

// ---- policy decorator ---------------------------------------------------------

PolicySummary summarize(const policy::ICache& cache) {
  PolicySummary s;
  const policy::CacheStats& st = cache.stats();
  s.gets = st.gets;
  s.puts = st.puts;
  s.evictions = st.evictions;
  if (const auto* camp = dynamic_cast<const core::CampCache*>(&cache)) {
    const core::CampIntrospection in = camp->introspect();
    s.heap_visits = in.heap.nodes_visited;
    s.queues = in.nonempty_queues;
  }
  return s;
}

kvs::PolicyFactory PolicySet::factory() {
  return [this](std::uint64_t capacity) -> std::unique_ptr<policy::ICache> {
    auto cache = std::make_unique<TimedPolicy>(
        policy::make_policy("camp", capacity));
    std::lock_guard<std::mutex> lock(mutex_);
    caches_.push_back(cache.get());
    return cache;
  };
}

PolicySummary PolicySet::summary() const {
  PolicySummary total;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const TimedPolicy* cache : caches_) {
    const PolicySummary s = summarize(cache->inner());
    total.gets += s.gets;
    total.puts += s.puts;
    total.evictions += s.evictions;
    total.heap_visits += s.heap_visits;
    total.queues += s.queues;
  }
  return total;
}

// ---- fault injection ------------------------------------------------------------

kvs::KvsBatchResult FaultApi::execute(const kvs::KvsBatch& batch) {
  if (fired_) return inner_.execute(batch);
  if (fault_ == Fault::kFlipHit) {
    kvs::KvsBatchResult out = inner_.execute(batch);
    for (kvs::KvsOpResult& r : out.results) {
      if (r.ok && !r.value.empty()) {
        r.value[r.value.size() / 2] ^= 0x01;
        fired_ = true;
        break;
      }
    }
    return out;
  }
  std::size_t dropped = batch.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].type == kvs::KvsOpType::kSet) {
      dropped = i;
      break;
    }
  }
  if (fault_ != Fault::kDropSet || dropped == batch.size()) {
    return inner_.execute(batch);
  }
  kvs::KvsBatch rest;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i == dropped) continue;
    const kvs::KvsOp& op = batch[i];
    if (op.type == kvs::KvsOpType::kSet) {
      rest.add_set(op.key, op.value, op.flags, op.cost, op.exptime_s);
    } else {
      rest.add_get(op.key);
    }
  }
  kvs::KvsBatchResult partial =
      rest.empty() ? kvs::KvsBatchResult{} : inner_.execute(rest);
  kvs::KvsOpResult fake;
  fake.ok = true;
  partial.results.insert(partial.results.begin() +
                             static_cast<std::ptrdiff_t>(dropped),
                         fake);
  fired_ = true;
  return partial;
}

// ---- ladder ------------------------------------------------------------------------

kvs::KvsBatchResult LadderApi::execute(const kvs::KvsBatch& batch) {
  ScopedSpan batch_span(SpanName::kBatch);
  kvs::BatchWire wire;
  {
    ScopedSpan span(SpanName::kEncode);
    wire = kvs::encode_batch(batch);
  }
  ++counters_.batches;
  counters_.ops += batch.size();
  counters_.request_bytes += wire.request.size();
  decoder_.feed(wire.request);
  reply_.clear();

  kvs::KvsBatchResult out;
  out.results.resize(batch.size());
  std::size_t expect = 0;
  kvs::DecodedCommand dc;
  while (true) {
    kvs::CommandDecoder::Status status;
    {
      ScopedSpan span(SpanName::kDecode);
      status = decoder_.next(dc);
    }
    if (status == kvs::CommandDecoder::Status::kNeedMore) break;
    if (status != kvs::CommandDecoder::Status::kCommand) {
      throw std::runtime_error("ladder: decoder rejected an encoded batch");
    }
    if (expect >= wire.expects.size()) {
      throw std::runtime_error("ladder: more commands than the reply plan");
    }
    ++counters_.commands;
    const std::vector<std::size_t>& slots = wire.expects[expect++].op_indices;
    const kvs::Command& cmd = dc.cmd;
    if (cmd.type == kvs::CommandType::kGet) {
      if (slots.size() != 1 + cmd.extra_keys.size()) {
        throw std::runtime_error("ladder: multi-get does not match its plan");
      }
      for (std::size_t k = 0; k < slots.size(); ++k) {
        const std::string& key = k == 0 ? cmd.key : cmd.extra_keys[k - 1];
        kvs::GetResult g;
        {
          ScopedSpan span(SpanName::kStoreGet);
          g = store_.get(key);
        }
        if (g.hit) {
          ScopedSpan span(SpanName::kFormat);
          reply_ += kvs::format_value(key, g.flags, g.value);
          ++counters_.replies;
        }
        kvs::KvsOpResult& r = out.results[slots[k]];
        r.ok = g.hit;
        r.flags = g.flags;
        r.value = std::move(g.value);
      }
      ScopedSpan span(SpanName::kFormat);
      reply_ += kvs::format_end();
      ++counters_.replies;
    } else if (cmd.type == kvs::CommandType::kSet) {
      bool ok = false;
      {
        ScopedSpan span(SpanName::kStoreSet);
        ok = store_.set(cmd.key, dc.payload, cmd.flags, cmd.cost,
                        cmd.exptime);
      }
      {
        ScopedSpan span(SpanName::kFormat);
        reply_ += kvs::format_stored(ok);
        ++counters_.replies;
      }
      out.results.at(slots.at(0)).ok = ok;
    } else {
      throw std::runtime_error("ladder: unexpected command type");
    }
  }
  if (expect != wire.expects.size()) {
    throw std::runtime_error("ladder: fewer commands than the reply plan");
  }
  counters_.reply_bytes += reply_.size();
  return out;
}

}  // namespace camp::perfbench
