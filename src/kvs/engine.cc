#include "kvs/engine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/key_hash.h"

namespace camp::kvs {

namespace {

/// Seconds left on a lease, rounded UP so mid-second reads do not shorten
/// it to "expires now"; 0 when the pair never expires.
std::uint32_t remaining_ttl_s(std::uint64_t expiry_ns,
                              std::uint64_t now_ns) {
  if (expiry_ns == 0) return 0;
  return static_cast<std::uint32_t>((expiry_ns - now_ns + 999'999'999ULL) /
                                    1'000'000'000ULL);
}

/// remaining_ttl_s now; the hit path reads the clock only for a pair that
/// expires.
std::uint32_t ttl_left(std::uint64_t expiry_ns, const util::Clock& clock) {
  return expiry_ns == 0 ? 0 : remaining_ttl_s(expiry_ns, clock.now_ns());
}

/// The key bytes resident in `chunk`.
std::string_view chunk_key(const slab::Chunk& chunk) {
  return item_key(chunk.data, read_item_header(chunk.data));
}

}  // namespace

KvsEngine::KvsEngine(EngineConfig config, const PolicyFactory& policy_factory,
                     const util::Clock& clock)
    : config_(config),
      slab_(config.slab),
      clock_(clock),
      rng_(config.rng_seed) {
  if (config.policy_fill_fraction <= 0.0 ||
      config.policy_fill_fraction > 1.0) {
    throw std::invalid_argument("EngineConfig: bad policy_fill_fraction");
  }
  const auto budget = static_cast<std::uint64_t>(
      static_cast<double>(config.slab.memory_limit_bytes) *
      config.policy_fill_fraction);
  policy_ = policy_factory(budget);
  if (!policy_) throw std::invalid_argument("KvsEngine: null policy");
  policy_->set_eviction_listener(
      [this](policy::Key id, std::uint64_t) { on_policy_eviction(id); });
}

KvsEngine::Item* KvsEngine::find_item(std::uint64_t hash,
                                      std::string_view key) const {
  return by_hash_.find_if(
      hash, [key](const Item* item) { return chunk_key(item->chunk) == key; });
}

GetResult KvsEngine::get(std::string_view key) {
  ++stats_.gets;
  Item* item = find_item(util::key_hash(key), key);
  if (item == nullptr) return {};
  if (expired(*item)) {
    // Lazy expiration: drop the stale pair and report a miss.
    ++stats_.expired;
    erase_item(item);
    return {};
  }
  const ItemHeader header = read_item_header(item->chunk.data);
  GetResult result;
  if (item->codec == Codec::kIdentity) {
    result.value.assign(item_stored(item->chunk.data, header));
  } else if (!decompress_value(item->codec,
                               item_stored(item->chunk.data, header),
                               item->raw_len, result.value)) {
    // Corrupt stored bytes (a bad peer transfer that slipped past wire
    // validation): drop the pair and miss, before any hit accounting.
    ++stats_.decompress_failures;
    erase_item(item);
    return {};
  }
  ++stats_.hits;
  policy_->get(item->id);  // refresh recency/priority
  result.hit = true;
  result.flags = header.flags;
  result.cost = header.cost;
  result.remaining_ttl_s = ttl_left(item->expiry_ns, clock_);
  return result;
}

StoredGetResult KvsEngine::get_stored(std::string_view key) {
  ++stats_.gets;
  Item* item = find_item(util::key_hash(key), key);
  if (item == nullptr) return {};
  if (expired(*item)) {
    ++stats_.expired;
    erase_item(item);
    return {};
  }
  ++stats_.hits;
  policy_->get(item->id);  // refresh recency/priority
  const ItemHeader header = read_item_header(item->chunk.data);
  StoredGetResult result;
  result.hit = true;
  result.stored.assign(item_stored(item->chunk.data, header));
  result.raw_len = item->raw_len;
  result.codec = item->codec;
  result.flags = header.flags;
  result.cost = header.cost;
  result.remaining_ttl_s = ttl_left(item->expiry_ns, clock_);
  return result;
}

GetResult KvsEngine::iqget(std::string_view key) {
  GetResult result = get(key);
  if (!result.hit) {
    miss_timestamps_[std::string(key)] = clock_.now_ns();
  }
  return result;
}

bool KvsEngine::set(std::string_view key, std::string_view value,
                    std::uint32_t flags, std::uint32_t cost,
                    std::uint32_t exptime_s) {
  ++stats_.sets;
  if (key.empty() || key.size() > kMaxKeyLength) {
    ++stats_.rejected_sets;
    return false;
  }
  // Compress-on-store: the stored form (and therefore the slab class and
  // the bytes charged to the policy) is the codec's output; the bail-out
  // keeps incompressible values on the identity layout.
  CompressResult comp = compress_value(value, config_.compression);
  if (config_.compression.enabled && comp.codec == Codec::kIdentity &&
      value.size() >= config_.compression.min_value_bytes) {
    ++stats_.compress_bails;
  }
  const std::string_view stored =
      comp.codec == Codec::kIdentity ? value : std::string_view(comp.data);
  return store_internal(key, stored, static_cast<std::uint32_t>(value.size()),
                        comp.codec, flags, cost, exptime_s);
}

bool KvsEngine::set_stored(std::string_view key, std::string_view stored,
                           std::uint32_t raw_len, Codec codec,
                           std::uint32_t flags, std::uint32_t cost,
                           std::uint32_t exptime_s) {
  // Identity means "this IS the raw value": route through set() so the
  // receiving node applies its own compression config, exactly as if the
  // client had written here directly.
  if (codec == Codec::kIdentity) {
    return set(key, stored, flags, cost, exptime_s);
  }
  ++stats_.sets;
  if (key.empty() || key.size() > kMaxKeyLength) {
    ++stats_.rejected_sets;
    return false;
  }
  return store_internal(key, stored, raw_len, codec, flags, cost, exptime_s);
}

bool KvsEngine::store_internal(std::string_view key, std::string_view stored,
                               std::uint32_t raw_len, Codec codec,
                               std::uint32_t flags, std::uint32_t cost,
                               std::uint32_t exptime_s) {
  if (cost == 0) cost = 1;
  const std::uint64_t footprint =
      item_footprint(key.size(), stored.size(), codec);
  const auto cls = slab_.class_for(footprint);
  if (!cls) {
    ++stats_.rejected_sets;
    return false;  // larger than the biggest chunk
  }
  const std::uint64_t charged = slab_.chunk_size_of_class(*cls);

  const std::uint64_t hash = util::key_hash(key);
  // Overwrite semantics: drop any existing copy first — including its
  // policy charge, or the stale id would keep its chunk-size accounted
  // until pressure happened to evict the phantom.
  if (Item* existing = find_item(hash, key)) erase_item(existing);

  // Let the policy account for the pair and evict as needed (evictions call
  // back into on_policy_eviction, which frees chunks). The id is indexed
  // only once the item exists; until then pending_id_ stands in for it.
  const policy::Key id = next_id_++;
  pending_id_ = id;
  pending_evicted_ = false;
  if (!policy_->put(id, charged, cost)) {
    pending_id_ = 0;
    ++stats_.rejected_sets;
    return false;
  }

  auto chunk = allocate_with_pressure(footprint);
  pending_id_ = 0;
  if (chunk && pending_evicted_) {
    // Pressure eviction drained the whole cache — including the incoming
    // pair's accounting — before a slab reassignment finally made room.
    // Space exists now, so re-account the pair (it is not resident during
    // this put, so it cannot be picked as its own victim again).
    pending_evicted_ = !policy_->put(id, charged, cost);
  }
  if (!chunk || pending_evicted_) {
    if (chunk) slab_.free(*chunk);
    if (!pending_evicted_) policy_->erase(id);
    ++stats_.rejected_sets;
    return false;
  }
  write_item(chunk->data, key, stored, raw_len, codec, flags, cost);
  Item* item = items_.acquire();
  *item = Item{
      .hash = hash,
      .id = id,
      .chunk = *chunk,
      .raw_len = raw_len,
      .stored_len = static_cast<std::uint32_t>(stored.size()),
      .expiry_ns = exptime_s == 0
                       ? 0
                       : clock_.now_ns() + static_cast<std::uint64_t>(
                                               exptime_s) *
                                               1'000'000'000ull,
      .codec = codec,
  };
  by_hash_.insert_multi(hash, item);
  by_id_.insert(id, item);
  ++stats_.items;
  stats_.value_bytes += raw_len;
  stats_.stored_bytes += stored.size();
  // Last, still inside the caller's shard critical section: stored and
  // evicted notifications for one key are totally ordered (see StoredHook).
  if (stored_hook_) stored_hook_(key);
  return true;
}

bool KvsEngine::iqset(std::string_view key, std::string_view value,
                      std::uint32_t flags, std::uint32_t exptime_s) {
  std::uint32_t cost = 1;
  const auto it = miss_timestamps_.find(std::string(key));
  if (it != miss_timestamps_.end()) {
    const std::uint64_t elapsed = clock_.now_ns() - it->second;
    const std::uint64_t scaled =
        elapsed / std::max<std::uint64_t>(1, config_.cost_time_divisor_ns);
    cost = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(scaled, 0xffffffffu));
    if (cost == 0) cost = 1;
    miss_timestamps_.erase(it);
  }
  return set(key, value, flags, cost, exptime_s);
}

bool KvsEngine::del(std::string_view key) {
  ++stats_.deletes;
  Item* item = find_item(util::key_hash(key), key);
  if (item == nullptr) return false;
  erase_item(item);
  return true;
}

void KvsEngine::flush_all() {
  by_hash_.for_each([this](std::uint64_t, Item* item) {
    policy_->erase(item->id);  // no eviction callback for erase
    slab_.free(item->chunk);
    items_.release(item);
  });
  by_hash_.clear();
  by_id_.clear();
  stats_.items = 0;
  stats_.value_bytes = 0;
  stats_.stored_bytes = 0;
  miss_timestamps_.clear();
}

bool KvsEngine::contains(std::string_view key) const {
  return find_item(util::key_hash(key), key) != nullptr;
}

std::uint32_t KvsEngine::cost_of(std::string_view key) const {
  const Item* item = find_item(util::key_hash(key), key);
  return item == nullptr ? 0 : read_item_header(item->chunk.data).cost;
}

void KvsEngine::for_each_item(
    const std::function<void(const ItemView&)>& fn) const {
  const std::uint64_t now = clock_.now_ns();
  by_hash_.for_each([&](std::uint64_t, const Item* item) {
    if (item->expiry_ns != 0 && now >= item->expiry_ns) return;
    const ItemHeader header = read_item_header(item->chunk.data);
    ItemView view;
    view.key = item_key(item->chunk.data, header);
    view.stored = item_stored(item->chunk.data, header);
    view.raw_len = item->raw_len;
    view.codec = item->codec;
    view.flags = header.flags;
    view.cost = header.cost;
    view.remaining_ttl_s = remaining_ttl_s(item->expiry_ns, now);
    view.charged_bytes = item->chunk.size;
    fn(view);
  });
}

bool KvsEngine::check_invariants() const {
  const std::size_t n = by_hash_.size();
  if (!by_hash_.check_invariants() || !by_id_.check_invariants() ||
      by_id_.size() != n || items_.live() != n || stats_.items != n ||
      policy_->item_count() != n) {
    return false;
  }
  bool ok = true;
  std::uint64_t value_bytes = 0;
  std::uint64_t stored_bytes = 0;
  by_hash_.for_each([&](std::uint64_t hash, const Item* item) {
    const ItemHeader header = read_item_header(item->chunk.data);
    const std::string_view key = item_key(item->chunk.data, header);
    // Ids are unique and both tables hold n members, so finding every item
    // under its own id also proves by_id_ holds nothing else.
    ok = ok && item->hash == hash && util::key_hash(key) == hash &&
         find_item(hash, key) == item && by_id_.find(item->id) == item &&
         header.stored_len == item->stored_len &&
         policy_->contains(item->id);
    value_bytes += item->raw_len;
    stored_bytes += item->stored_len;
  });
  return ok && value_bytes == stats_.value_bytes &&
         stored_bytes == stats_.stored_bytes;
}

void KvsEngine::erase_item(Item* item) {
  policy_->erase(item->id);  // no eviction callback for erase
  remove_item(item, /*free_chunk=*/true);
}

void KvsEngine::remove_item(Item* item, bool free_chunk) {
  if (free_chunk) slab_.free(item->chunk);
  by_hash_.erase_value(item->hash, item);
  by_id_.erase(item->id);
  stats_.value_bytes -= item->raw_len;
  stats_.stored_bytes -= item->stored_len;
  --stats_.items;
  items_.release(item);
}

void KvsEngine::on_policy_eviction(policy::Key id) {
  if (id == pending_id_ && pending_id_ != 0) {
    pending_evicted_ = true;  // the in-flight set was chosen as the victim
    return;
  }
  Item* item = by_id_.find(id);
  if (item == nullptr) return;  // already gone
  notify_eviction(*item);
  remove_item(item, /*free_chunk=*/true);
}

void KvsEngine::notify_eviction(const Item& item) {
  if (!eviction_hook_) return;
  const std::uint64_t now = clock_.now_ns();
  // An already-lapsed pair is dead weight: dropping it loses nothing, so
  // the hook (and the cluster's guard) never sees it.
  if (item.expiry_ns != 0 && now >= item.expiry_ns) return;
  const ItemHeader header = read_item_header(item.chunk.data);
  EvictedItem evicted;
  evicted.key = item_key(item.chunk.data, header);
  evicted.stored = item_stored(item.chunk.data, header);
  evicted.raw_len = item.raw_len;
  evicted.codec = item.codec;
  evicted.flags = header.flags;
  evicted.cost = header.cost;
  evicted.charged_bytes = item.chunk.size;
  evicted.remaining_ttl_s = remaining_ttl_s(item.expiry_ns, now);
  eviction_hook_(evicted);
}

std::optional<slab::Chunk> KvsEngine::allocate_with_pressure(
    std::uint64_t footprint) {
  if (auto chunk = slab_.allocate(footprint)) return chunk;
  // First pressure valve: let the POLICY pick victims (the paper's step 4,
  // "evict an existing key-value pair using LRU [or CAMP] and replace its
  // contents"). Victims free their chunks via the eviction listener; keep
  // evicting until a chunk of the needed class frees up or the policy runs
  // dry. This is what makes LRU and CAMP behave differently in the KVS.
  constexpr int kMaxPolicyEvictions = 2048;
  for (int i = 0; i < kMaxPolicyEvictions; ++i) {
    if (!policy_->evict_one()) break;
    if (auto chunk = slab_.allocate(footprint)) return chunk;
  }
  // Second valve: the class itself is starved of slabs (calcification).
  // Apply twemcache's remedy: reassign a random slab from another class,
  // invalidating its residents.
  const auto cls = slab_.class_for(footprint);
  assert(cls.has_value());
  for (int attempt = 0; attempt < 4; ++attempt) {
    const bool reassigned = slab_.reassign_slab(
        *cls, rng_, [this](const slab::Chunk& victim_chunk) {
          const std::byte* data = victim_chunk.data;
          Item* item = by_hash_.find_if(
              util::key_hash(chunk_key(victim_chunk)),
              [data](const Item* i) { return i->chunk.data == data; });
          if (item == nullptr) return;
          policy_->erase(item->id);
          notify_eviction(*item);  // pressure drop, same as a policy eviction
          // The chunk is being re-carved: do NOT free it back to its class.
          remove_item(item, /*free_chunk=*/false);
        });
    if (!reassigned) break;
    ++stats_.slab_reassignments;
    if (auto chunk = slab_.allocate(footprint)) return chunk;
  }
  return std::nullopt;
}

}  // namespace camp::kvs
