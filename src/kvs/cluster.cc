#include "kvs/cluster.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "kvs/client.h"
#include "kvs/compress.h"
#include "util/key_hash.h"

namespace camp::kvs {

std::uint64_t cluster_route_key(std::string_view key) noexcept {
  // FNV-1a; the ring applies its own finalizing mix on top.
  return util::fnv1a64(key);
}

void ClusterConfig::validate() const {
  if (virtual_nodes == 0) {
    throw std::invalid_argument("ClusterConfig: virtual_nodes must be >= 1");
  }
  if (replication == 0) {
    throw std::invalid_argument("ClusterConfig: replication must be >= 1");
  }
  if (preserve_last_replica && guard_capacity_bytes > 0 &&
      guard_lease_requests == 0) {
    throw std::invalid_argument(
        "ClusterConfig: guard_lease_requests must be >= 1 when the guard "
        "is on");
  }
}

ClusterConfig CoopCluster::validated(ClusterConfig config) {
  config.validate();
  return config;
}

CoopCluster::CoopCluster(ClusterConfig config)
    : config_(validated(config)),
      guard_capacity_(config_.preserve_last_replica
                          ? config_.guard_capacity_bytes
                          : 0),
      ring_(config_.virtual_nodes) {
  hints_.set_budget(config_.repair.hinted_handoff
                        ? config_.repair.hint_budget_bytes
                        : 0);
}

CoopCluster::~CoopCluster() {
  for (auto& [id, node] : nodes_) {
    node.store->set_eviction_hook(nullptr);
    node.store->set_stored_hook(nullptr);
  }
}

CoopCluster::NodeId CoopCluster::join(KvsStore& store) {
  NodeId id;
  {
    util::MutexLock lock(mutex_);
    id = next_node_id_++;
    nodes_.emplace(id, Node{&store, {}, 0});
    ring_.add_node(id);
  }
  store.set_eviction_hook(
      [this, id](const EvictedItem& item) { on_node_eviction(id, item); });
  // The stored hook runs inside the shard critical section of every
  // successful set, so a replica is registered BEFORE any later eviction
  // of it can fire — registering after the store call returned would leave
  // a window where the eviction hook misses the pair (no guard park) and
  // the directory then tracks a ghost.
  store.set_stored_hook(
      [this, id](std::string_view key) { on_node_stored(id, key); });
  // Register pre-existing residents (a caller-seeded store) so peer fetches
  // can find them. Runs under each shard's lock -> cluster mutex, the same
  // order the hooks use.
  store.for_each_item([this, id](const ItemView& item) {
    util::MutexLock lock(mutex_);
    directory_.add(std::string(item.key), id);
  });
  return id;
}

void CoopCluster::set_node_endpoint(NodeId id, std::string host,
                                    std::uint16_t port) {
  util::MutexLock lock(mutex_);
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    throw std::invalid_argument("CoopCluster: unknown node id " +
                                std::to_string(id));
  }
  it->second.host = std::move(host);
  it->second.port = port;
}

void CoopCluster::leave(NodeId id) {
  KvsStore* store = nullptr;
  {
    util::MutexLock lock(mutex_);
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) {
      throw std::invalid_argument("CoopCluster: unknown node id " +
                                  std::to_string(id));
    }
    if (nodes_.size() <= 1) {
      throw std::invalid_argument("CoopCluster: cannot remove the final node");
    }
    store = it->second.store;
  }
  // Stop the hooks first: the drain below is the only thing that may
  // mutate this node's directory state from here on.
  store->set_eviction_hook(nullptr);
  store->set_stored_hook(nullptr);

  struct Resident {
    std::string key;
    std::string stored;  // the pair's stored (possibly compressed) form
    std::uint32_t raw_len = 0;
    Codec codec = Codec::kIdentity;
    std::uint32_t flags = 0;
    std::uint32_t cost = 0;
    std::uint64_t charged_bytes = 0;
    std::uint32_t remaining_ttl_s = 0;
  };
  std::vector<Resident> residents;
  store->for_each_item([&residents](const ItemView& item) {
    residents.push_back({std::string(item.key), std::string(item.stored),
                         item.raw_len, item.codec, item.flags, item.cost,
                         item.charged_bytes, item.remaining_ttl_s});
  });
  // Hash-map walk order is not a contract; sort so the guard's FIFO intake
  // (and therefore every downstream counter) is deterministic run to run.
  std::sort(residents.begin(), residents.end(),
            [](const Resident& a, const Resident& b) { return a.key < b.key; });
  {
    util::MutexLock lock(mutex_);
    for (Resident& r : residents) {
      // remove() returns true exactly when this dropped the LAST replica:
      // those pairs must land in the guard, not vanish.
      if (directory_.remove(r.key, id)) {
        guard_park_locked(GuardEntry{std::move(r.key), std::move(r.stored),
                                     r.raw_len, r.codec, r.flags, r.cost,
                                     r.charged_bytes, /*deadline=*/0,
                                     r.remaining_ttl_s});
      }
    }
    // Entries that survived the sweep name pairs the store no longer has
    // (lazily expired values): the bytes are gone, so the directory simply
    // forgets them.
    counters_.stale_directory_drops += directory_.remove_node(id).size();
    // Hints aimed at a node that will never rejoin are dead letters.
    counters_.repair.hints_obsolete += hints_.erase_target(id);
    ring_.remove_node(id);
    nodes_.erase(id);
  }
  {
    util::MutexLock lock(links_mutex_);
    links_.erase(id);
  }
  store->flush_all();
}

GetResult CoopCluster::get(NodeId self, std::string_view key, bool iq) {
  const std::string key_str(key);
  KvsStore* local = nullptr;
  bool cold = false;
  {
    util::MutexLock lock(mutex_);
    const auto it = nodes_.find(self);
    if (it == nodes_.end()) {
      throw std::invalid_argument("CoopCluster: unknown node id " +
                                  std::to_string(self));
    }
    if (!it->second.live) {
      // Backstop: a dead node serves nothing. Routed traffic never gets
      // here (ClusterClient's transport to it is down and fails over), but
      // a direct caller must not read a flushed store as a silent miss.
      throw std::runtime_error("CoopCluster: node " + std::to_string(self) +
                               " is down");
    }
    local = it->second.store;
    ++counters_.requests;
    cold = config_.track_cold_misses && seen_.insert(key_str).second;
    guard_expire_front_locked();
  }

  // 1. home-node lookup.
  GetResult result = iq ? local->iqget(key) : local->get(key);
  if (result.hit) {
    bool repair_home = false;
    NodeId home = 0;
    {
      util::MutexLock lock(mutex_);
      ++counters_.local_hits;
      // Read repair: this node served a read for a key it is NOT the home
      // of (a failover read, or residue of ring churn) while the home is
      // live but missing the pair — re-register the value there so the
      // next read routed home is a local hit without waiting for a sweep.
      if (config_.repair.read_repair && config_.replication > 1) {
        home = ring_.node_for(cluster_route_key(key));
        if (home != self) {
          const auto home_it = nodes_.find(home);
          repair_home = home_it != nodes_.end() && home_it->second.live &&
                        !directory_.holds(key_str, home);
        }
      }
    }
    if (repair_home &&
        replica_write(home, key, result.value,
                      static_cast<std::uint32_t>(result.value.size()),
                      Codec::kIdentity, result.flags, result.cost,
                      result.remaining_ttl_s)) {
      util::MutexLock lock(mutex_);
      ++counters_.repair.read_repairs;
    }
    return result;
  }

  // 2. directory -> peer fetch.
  for (;;) {
    std::optional<NodeId> holder;
    {
      util::MutexLock lock(mutex_);
      holder = directory_.any_holder(key_str, self);
    }
    if (!holder) break;
    StoredGetResult fetched = peer_fetch(*holder, key);
    std::string value;
    if (fetched.hit &&
        !decompress_value(fetched.codec, fetched.stored, fetched.raw_len,
                          value)) {
      // A stored form that does not decode is as useless as a miss — a
      // byzantine or mixed-version holder must not poison this read.
      fetched.hit = false;
    }
    if (!fetched.hit) {
      // The holder no longer has the pair (expiry, concurrent removal, a
      // node that died): forget the stale entry and try the next holder.
      util::MutexLock lock(mutex_);
      directory_.remove(key_str, *holder);
      ++counters_.stale_directory_drops;
      continue;
    }
    {
      util::MutexLock lock(mutex_);
      ++counters_.remote_hits;
      // The pair crossed the transport in its STORED form: compressed
      // pairs charge their compressed size here, which is the whole point
      // of shipping them compressed.
      counters_.transfer_bytes += fetched.stored.size();
    }
    if (config_.promote_on_remote_hit) {
      // Read-through replication: copy the pair to its home so the next
      // request is a local hit (and membership changes heal over time).
      // The remaining TTL travels with the fetch, so a lease-bound pair
      // does not become immortal by being promoted. The stored hook
      // registers the new replica in the directory. A compressed fetch is
      // re-stored verbatim — no decompress/recompress round-trip.
      if (local->set_stored(key, fetched.stored, fetched.raw_len,
                            fetched.codec, fetched.flags, fetched.cost,
                            fetched.remaining_ttl_s)) {
        util::MutexLock lock(mutex_);
        ++counters_.promotions;
      }
    }
    GetResult out;
    out.hit = true;
    out.value = std::move(value);
    out.flags = fetched.flags;
    out.cost = fetched.cost;
    out.remaining_ttl_s = fetched.remaining_ttl_s;
    return out;
  }

  // 3. last-replica guard.
  if (auto parked = guard_take(key_str)) {
    std::string value;
    if (decompress_value(parked->codec, parked->stored, parked->raw_len,
                         value)) {
      {
        util::MutexLock lock(mutex_);
        ++counters_.guard_hits;
      }
      GetResult out;
      out.hit = true;
      out.flags = parked->flags;
      out.cost = parked->cost;
      out.remaining_ttl_s = parked->remaining_ttl_s;
      // Reinstate at the home node with the lease it was parked with: the
      // bytes never left the cluster, and a compressed park reinstates
      // verbatim. The stored hook registers the replica.
      (void)local->set_stored(key, parked->stored, parked->raw_len,
                              parked->codec, parked->flags, parked->cost,
                              parked->remaining_ttl_s);
      out.value = std::move(value);
      return out;
    }
    // Undecodable parked bytes (cannot happen unless memory was scribbled
    // on): drop them and fall through to the miss path.
  }

  // 4. true miss: the client recomputes and refills via set().
  {
    util::MutexLock lock(mutex_);
    if (cold) {
      ++counters_.cold_misses;
    } else {
      ++counters_.misses;
    }
  }
  return result;
}

bool CoopCluster::set(NodeId self, std::string_view key,
                      std::string_view value, std::uint32_t flags,
                      std::uint32_t cost, std::uint32_t exptime_s) {
  KvsStore* local = nullptr;
  std::vector<NodeId> targets;
  {
    util::MutexLock lock(mutex_);
    const auto it = nodes_.find(self);
    if (it == nodes_.end()) {
      throw std::invalid_argument("CoopCluster: unknown node id " +
                                  std::to_string(self));
    }
    if (!it->second.live) {
      throw std::runtime_error("CoopCluster: node " + std::to_string(self) +
                               " is down");
    }
    local = it->second.store;
    ++counters_.sets;
    if (config_.replication > 1) {
      targets = plan_write_targets_locked(key);
    }
  }
  if (targets.size() <= 1) {
    // Replication 1 (or a single-node ring, or one live node — which must
    // be self): the legacy home-only write. Directory registration and the
    // purge of any superseded guard entry happen in the stored hook, inside
    // the shard critical section.
    return local->set(key, value, flags, cost, exptime_s);
  }
  return fan_out_write(self, local, targets, key, value, flags, cost,
                       exptime_s, /*iq=*/false);
}

bool CoopCluster::iqset(NodeId self, std::string_view key,
                        std::string_view value, std::uint32_t flags,
                        std::uint32_t exptime_s) {
  KvsStore* local = nullptr;
  std::vector<NodeId> targets;
  {
    util::MutexLock lock(mutex_);
    const auto it = nodes_.find(self);
    if (it == nodes_.end()) {
      throw std::invalid_argument("CoopCluster: unknown node id " +
                                  std::to_string(self));
    }
    if (!it->second.live) {
      throw std::runtime_error("CoopCluster: node " + std::to_string(self) +
                               " is down");
    }
    local = it->second.store;
    ++counters_.sets;
    if (config_.replication > 1) {
      targets = plan_write_targets_locked(key);
    }
  }
  if (targets.size() <= 1) {
    return local->iqset(key, value, flags, exptime_s);
  }
  return fan_out_write(self, local, targets, key, value, flags, /*cost=*/0,
                       exptime_s, /*iq=*/true);
}

std::vector<CoopCluster::NodeId> CoopCluster::plan_write_targets_locked(
    std::string_view key) {
  const auto ring_order =
      ring_.nodes_for(cluster_route_key(key), nodes_.size());
  // Local liveness snapshot: the planner's callback must not touch guarded
  // members (Clang TSA does not see through lambdas).
  std::map<NodeId, bool> live;
  for (const auto& [id, node] : nodes_) live[id] = node.live;
  SloppyWritePlan plan =
      plan_sloppy_write(ring_order, config_.replication, [&live](NodeId id) {
        const auto it = live.find(id);
        return it != live.end() && it->second;
      });
  if (config_.write_ack == WriteAckPolicy::kAckHome &&
      config_.repair.hinted_handoff) {
    const std::string key_str(key);
    for (const NodeId dead : plan.hinted) {
      hints_.push(dead, key_str, kHintOverheadBytes + key_str.size(),
                  counters_.repair);
    }
  }
  return std::move(plan.targets);
}

bool CoopCluster::fan_out_write(NodeId self, KvsStore* local,
                                const std::vector<NodeId>& targets,
                                std::string_view key, std::string_view value,
                                std::uint32_t flags, std::uint32_t cost,
                                std::uint32_t exptime_s, bool iq) {
  // Ring order, home first — the order CoopGroup::install_replicas writes,
  // so evictions (and therefore every downstream counter) line up with the
  // simulator. The cluster mutex is NOT held here: each write takes the
  // target store's shard lock, whose critical section feeds the hooks.
  bool home_ok = false;
  bool all_ok = true;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const NodeId target = targets[i];
    bool ok = false;
    if (target == self) {
      ok = iq ? local->iqset(key, value, flags, exptime_s)
              : local->set(key, value, flags, cost, exptime_s);
    } else {
      // Replicas of an iqset carry cost 0 (engines clamp to 1): the IQ
      // miss-timestamp lease lives at the home store only. The fan-out
      // carries the RAW value as identity — each target applies its own
      // compression config, exactly like a direct set.
      ok = replica_write(target, key, value,
                         static_cast<std::uint32_t>(value.size()),
                         Codec::kIdentity, flags, iq ? 0 : cost, exptime_s);
    }
    if (i == 0) {
      home_ok = ok;
    } else {
      util::MutexLock lock(mutex_);
      if (ok) {
        ++counters_.replica_writes;
      } else {
        ++counters_.replica_write_failures;
        // A best-effort replica write that failed leaves the key
        // under-replicated: hand the copy off as a hint so the target (or
        // a sweep, whichever comes first) can catch up.
        if (config_.write_ack == WriteAckPolicy::kAckHome &&
            config_.repair.hinted_handoff) {
          const std::string key_str(key);
          hints_.push(target, key_str, kHintOverheadBytes + key_str.size(),
                      counters_.repair);
        }
      }
    }
    all_ok = all_ok && ok;
  }
  return config_.write_ack == WriteAckPolicy::kAckAll ? all_ok : home_ok;
}

bool CoopCluster::del(NodeId self, std::string_view key) {
  const std::string key_str(key);
  std::vector<NodeId> holders;
  KvsStore* local = nullptr;
  {
    util::MutexLock lock(mutex_);
    const auto it = nodes_.find(self);
    if (it == nodes_.end()) {
      throw std::invalid_argument("CoopCluster: unknown node id " +
                                  std::to_string(self));
    }
    if (!it->second.live) {
      throw std::runtime_error("CoopCluster: node " + std::to_string(self) +
                               " is down");
    }
    local = it->second.store;
    ++counters_.deletes;
    holders = directory_.holders_of(key_str);
    // A delete also voids any parked last replica and any queued hints —
    // replaying a hint for a deleted key would resurrect it.
    if (const auto g = guard_index_.find(key_str); g != guard_index_.end()) {
      guard_drop_locked(g->second);
    }
    counters_.repair.hints_obsolete += hints_.erase_key(key_str);
  }
  bool deleted = false;
  bool self_tracked = false;
  for (const NodeId holder : holders) {
    if (holder == self) {
      self_tracked = true;
      deleted = local->del(key) || deleted;
    } else {
      deleted = peer_delete(holder, key) || deleted;
    }
    util::MutexLock lock(mutex_);
    directory_.remove(key_str, holder);
  }
  // Defensive: drop an untracked local residue (should not happen while
  // the directory is consistent).
  if (!self_tracked) deleted = local->del(key) || deleted;
  return deleted;
}

void CoopCluster::flush_node(NodeId id) {
  KvsStore* store = nullptr;
  {
    util::MutexLock lock(mutex_);
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) {
      throw std::invalid_argument("CoopCluster: unknown node id " +
                                  std::to_string(id));
    }
    store = it->second.store;
    // An explicit wipe, like a delete: nothing is preserved in the guard.
    directory_.remove_node(id);
    // Parked last replicas of keys HOMED here are this node's data too — a
    // post-flush get would otherwise reinstate pre-flush bytes straight
    // out of the guard, silently undoing the flush. Keys homed at other
    // nodes keep their parked entries (their flush did not happen).
    for (auto it2 = guard_fifo_.begin(); it2 != guard_fifo_.end();) {
      const auto next = std::next(it2);
      if (ring_.node_for(cluster_route_key(it2->key)) == id) {
        guard_drop_locked(it2);
      }
      it2 = next;
    }
  }
  store->flush_all();
}

// ---------------------------------------------------------------------------
// Churn & anti-entropy
// ---------------------------------------------------------------------------

void CoopCluster::kill_node(NodeId id) {
  KvsStore* store = nullptr;
  {
    util::MutexLock lock(mutex_);
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) {
      throw std::invalid_argument("CoopCluster: unknown node id " +
                                  std::to_string(id));
    }
    if (!it->second.live) return;
    it->second.live = false;
    store = it->second.store;
  }
  // A crash loses the node's data outright: detach the hooks FIRST so the
  // wipe below cannot feed the guard (unlike leave(), nothing is preserved
  // — that is the under-replication the repair mechanisms exist to heal).
  store->set_eviction_hook(nullptr);
  store->set_stored_hook(nullptr);
  {
    util::MutexLock lock(mutex_);
    directory_.remove_node(id);
  }
  store->flush_all();
}

void CoopCluster::heal_node(NodeId id) {
  KvsStore* store = nullptr;
  std::vector<std::string> hinted;
  {
    util::MutexLock lock(mutex_);
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) {
      throw std::invalid_argument("CoopCluster: unknown node id " +
                                  std::to_string(id));
    }
    if (it->second.live) return;
    it->second.live = true;
    store = it->second.store;
    // Claim the backlog under the same lock that flipped liveness: writes
    // racing in from here on target the node directly instead of hinting.
    hinted = hints_.drain(id);
  }
  // Reattach the hooks BEFORE replaying hints, so every replayed copy
  // registers in the directory exactly like a normal replica write.
  store->set_eviction_hook(
      [this, id](const EvictedItem& item) { on_node_eviction(id, item); });
  store->set_stored_hook(
      [this, id](std::string_view key) { on_node_stored(id, key); });
  // Drain the hints oldest-first (the order the writes were missed in).
  // Each hint is only a (target, key) pointer: the VALUE is re-fetched from
  // a surviving live holder, so a hint can never resurrect stale bytes of a
  // key that was deleted or re-written while the node was down.
  for (const std::string& key : hinted) {
    std::optional<NodeId> source;
    {
      util::MutexLock lock(mutex_);
      if (directory_.holds(key, id)) {
        ++counters_.repair.hints_obsolete;  // e.g. a sweep got there first
        continue;
      }
      for (const NodeId holder : directory_.holders_of(key)) {
        const auto hit = nodes_.find(holder);
        if (hit != nodes_.end() && hit->second.live) {
          source = holder;
          break;
        }
      }
    }
    if (!source) {
      util::MutexLock lock(mutex_);
      ++counters_.repair.hints_obsolete;  // key left the cluster meanwhile
      continue;
    }
    const StoredGetResult fetched = peer_fetch(*source, key);
    if (!fetched.hit) {
      util::MutexLock lock(mutex_);
      ++counters_.repair.hints_obsolete;  // holder lost it before the fetch
      continue;
    }
    // The stored form passes through verbatim — a compressed pair is
    // repaired compressed, never decode/re-encoded in transit.
    const bool ok =
        replica_write(id, key, fetched.stored, fetched.raw_len, fetched.codec,
                      fetched.flags, fetched.cost, fetched.remaining_ttl_s);
    util::MutexLock lock(mutex_);
    if (ok) {
      ++counters_.repair.hints_replayed;
    } else {
      ++counters_.repair.hints_obsolete;  // the rejoined store rejected it
    }
  }
}

std::size_t CoopCluster::repair_tick(std::size_t max_keys) {
  struct Job {
    std::string key;
    NodeId source = 0;
    std::vector<NodeId> targets;
  };
  std::vector<Job> jobs;
  {
    util::MutexLock lock(mutex_);
    ++counters_.repair.sweep_ticks;

    std::map<NodeId, bool> live;
    std::size_t live_count = 0;
    for (const auto& [id, node] : nodes_) {
      live[id] = node.live;
      if (node.live) ++live_count;
    }
    const std::size_t want =
        std::min<std::size_t>(config_.replication, live_count);

    // Candidates: every directory key whose LIVE holder count is below the
    // achievable replication level, in sorted (route, key) order — the same
    // numeric order the simulator twin sweeps its u64 keys in.
    struct Candidate {
      std::uint64_t route = 0;
      std::string key;
      std::vector<NodeId> holders;
    };
    std::vector<Candidate> candidates;
    if (want > 1) {
      for (auto& [key, holders] : directory_.snapshot()) {
        std::size_t live_copies = 0;
        for (const NodeId h : holders) {
          if (live[h]) ++live_copies;
        }
        if (live_copies >= want) continue;
        candidates.push_back(
            {cluster_route_key(key), key, std::move(holders)});
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.route != b.route ? a.route < b.route
                                            : a.key < b.key;
                });
    }

    // Bounded ticks resume after the cursor (the last key the previous
    // bounded tick processed); an unbounded tick sweeps everything.
    std::size_t begin = 0;
    std::size_t end = candidates.size();
    if (max_keys > 0) {
      if (sweep_cursor_) {
        const std::uint64_t cursor_route = cluster_route_key(*sweep_cursor_);
        while (begin < candidates.size() &&
               !(cursor_route < candidates[begin].route ||
                 (cursor_route == candidates[begin].route &&
                  *sweep_cursor_ < candidates[begin].key))) {
          ++begin;
        }
        if (begin >= candidates.size()) begin = 0;  // wrap to the front
      }
      end = std::min(candidates.size(), begin + max_keys);
      if (end == candidates.size()) {
        sweep_cursor_.reset();
      } else {
        sweep_cursor_ = candidates[end - 1].key;
      }
    } else {
      sweep_cursor_.reset();
    }

    std::size_t scanned = 0;
    std::size_t failures = 0;
    for (std::size_t i = begin; i < end; ++i) {
      Candidate& c = candidates[i];
      ++scanned;
      std::optional<NodeId> source;
      std::size_t live_copies = 0;
      for (const NodeId h : c.holders) {
        if (!live[h]) continue;
        ++live_copies;
        if (!source) source = h;  // first live holder, insertion order
      }
      if (!source) {
        ++failures;  // nobody live holds it: this key cannot be repaired
        continue;
      }
      const auto ring_order = ring_.nodes_for(c.route, nodes_.size());
      std::vector<NodeId> targets = plan_key_repair_targets(
          ring_order, want, live_copies,
          [&live](NodeId id) {
            const auto it = live.find(id);
            return it != live.end() && it->second;
          },
          [&c](NodeId id) {
            return std::find(c.holders.begin(), c.holders.end(), id) !=
                   c.holders.end();
          });
      if (targets.empty()) continue;
      jobs.push_back(Job{std::move(c.key), *source, std::move(targets)});
    }
    counters_.repair.sweep_keys_scanned += scanned;
    counters_.repair.sweep_failures += failures;
  }

  // Transfers happen OUTSIDE the metadata lock: one peer fetch per key (a
  // real get, so the source's eviction policy sees the touch), one replica
  // write per missing copy (the target's stored hook registers it).
  std::size_t recopies = 0;
  std::size_t failures = 0;
  for (const Job& job : jobs) {
    const StoredGetResult fetched = peer_fetch(job.source, job.key);
    if (!fetched.hit) {
      ++failures;  // the source lost the pair between the plan and the fetch
      continue;
    }
    for (const NodeId target : job.targets) {
      if (replica_write(target, job.key, fetched.stored, fetched.raw_len,
                        fetched.codec, fetched.flags, fetched.cost,
                        fetched.remaining_ttl_s)) {
        ++recopies;
      } else {
        ++failures;
      }
    }
  }
  {
    util::MutexLock lock(mutex_);
    counters_.repair.sweep_recopies += recopies;
    counters_.repair.sweep_failures += failures;
  }
  return recopies;
}

bool CoopCluster::node_live(NodeId id) const {
  util::MutexLock lock(mutex_);
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    throw std::invalid_argument("CoopCluster: unknown node id " +
                                std::to_string(id));
  }
  return it->second.live;
}

std::vector<std::string> CoopCluster::under_replicated_keys() const {
  util::MutexLock lock(mutex_);
  std::map<NodeId, bool> live;
  std::size_t live_count = 0;
  for (const auto& [id, node] : nodes_) {
    live[id] = node.live;
    if (node.live) ++live_count;
  }
  const std::size_t want =
      std::min<std::size_t>(config_.replication, live_count);
  std::vector<std::string> keys;
  for (const auto& [key, holders] : directory_.snapshot()) {
    std::size_t live_copies = 0;
    for (const NodeId h : holders) {
      if (live[h]) ++live_copies;
    }
    if (live_copies < want) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::size_t CoopCluster::hint_count() const {
  util::MutexLock lock(mutex_);
  return hints_.size();
}

std::uint64_t CoopCluster::hint_used_bytes() const {
  util::MutexLock lock(mutex_);
  return hints_.used_bytes();
}

CoopCluster::NodeId CoopCluster::home_node(std::string_view key) const {
  util::MutexLock lock(mutex_);
  return ring_.node_for(cluster_route_key(key));
}

std::vector<CoopCluster::NodeId> CoopCluster::replica_nodes(
    std::string_view key) const {
  util::MutexLock lock(mutex_);
  return ring_.nodes_for(cluster_route_key(key), config_.replication);
}

std::size_t CoopCluster::node_count() const {
  util::MutexLock lock(mutex_);
  return nodes_.size();
}

std::vector<CoopCluster::NodeId> CoopCluster::node_ids() const {
  util::MutexLock lock(mutex_);
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) out.push_back(id);
  return out;
}

ClusterCounters CoopCluster::counters() const {
  util::MutexLock lock(mutex_);
  return counters_;
}

std::size_t CoopCluster::guard_item_count() const {
  util::MutexLock lock(mutex_);
  return guard_index_.size();
}

std::uint64_t CoopCluster::guard_used_bytes() const {
  util::MutexLock lock(mutex_);
  return guard_used_;
}

bool CoopCluster::guard_contains(std::string_view key) const {
  util::MutexLock lock(mutex_);
  return guard_index_.contains(std::string(key));
}

std::size_t CoopCluster::directory_replica_count(std::string_view key) const {
  util::MutexLock lock(mutex_);
  return directory_.replica_count(std::string(key));
}

bool CoopCluster::check_invariants() const {
  // Snapshot the shared metadata first, then verify against the stores
  // WITHOUT the cluster mutex: the canonical lock order is store shard
  // mutex -> cluster mutex (the eviction hooks), and holding the cluster
  // mutex across store calls would invert it. The caller guarantees no
  // traffic is in flight, so the snapshot stays valid for the comparison.
  std::vector<std::pair<std::string, std::vector<NodeId>>> directory;
  std::map<NodeId, KvsStore*> stores;
  std::size_t tracked_total = 0;
  std::vector<std::pair<std::string, std::uint64_t>> parked;  // key, charged
  std::size_t guard_indexed = 0;
  std::uint64_t guard_used = 0;
  std::uint64_t guard_capacity = 0;
  {
    util::MutexLock lock(mutex_);
    directory = directory_.snapshot();
    for (const auto& [id, node] : nodes_) stores[id] = node.store;
    tracked_total = directory_.total_replicas();
    parked.reserve(guard_fifo_.size());
    for (const GuardEntry& e : guard_fifo_) {
      parked.emplace_back(e.key, e.charged_bytes);
    }
    guard_indexed = guard_index_.size();
    guard_used = guard_used_;
    guard_capacity = guard_capacity_;
  }

  std::size_t directory_replicas = 0;
  std::unordered_set<std::string> tracked_keys;
  for (const auto& [key, holders] : directory) {
    if (holders.empty()) return false;
    tracked_keys.insert(key);
    for (const NodeId id : holders) {
      const auto it = stores.find(id);
      if (it == stores.end()) return false;
      if (!it->second->contains(key)) return false;
    }
    directory_replicas += holders.size();
  }
  if (directory_replicas != tracked_total) return false;
  // Resident totals must agree with the directory (counting argument; the
  // stores do not enumerate keys cheaply). Lazily-expired pairs would skew
  // this — the invariant check targets no-expiry configurations.
  std::size_t resident = 0;
  for (const auto& [id, store] : stores) {
    resident += store->aggregated_stats().items;
  }
  if (resident != directory_replicas) return false;

  if (guard_indexed != parked.size()) return false;
  if (guard_used > guard_capacity && !parked.empty()) return false;
  std::uint64_t guard_bytes = 0;
  for (const auto& [key, charged] : parked) {
    guard_bytes += charged;
    // A parked pair must have zero replicas anywhere.
    if (tracked_keys.contains(key)) return false;
  }
  return guard_bytes == guard_used;
}

// ---------------------------------------------------------------------------
// Peer transports
// ---------------------------------------------------------------------------

std::shared_ptr<CoopCluster::PeerLink> CoopCluster::link_for(NodeId id) {
  util::MutexLock lock(links_mutex_);
  auto& link = links_[id];
  if (!link) link = std::make_shared<PeerLink>();
  return link;
}

StoredGetResult CoopCluster::peer_fetch(NodeId holder, std::string_view key) {
  KvsStore* store = nullptr;
  std::string host;
  std::uint16_t port = 0;
  {
    util::MutexLock lock(mutex_);
    const auto it = nodes_.find(holder);
    if (it == nodes_.end()) return {};  // node left concurrently
    if (!it->second.live) return {};    // crashed holder: treat as a miss
    store = it->second.store;
    host = it->second.host;
    port = it->second.port;
  }
  if (port == 0) {
    // In-process fetch: a real stored-form get at the holder, so its
    // eviction policy sees the touch exactly as the simulator's peer path
    // does — and a compressed pair never pays a decompress just to move.
    return store->get_stored(key);
  }
  const std::shared_ptr<PeerLink> link = link_for(holder);
  util::MutexLock io(link->mutex);
  try {
    if (!link->client) {
      link->client = std::make_unique<KvsClient>(host, port);
    }
    return link->client->peer_get(key);
  } catch (const std::exception&) {
    // Connection refused/reset, or a malformed reply (mixed-version peer,
    // corrupted stream — std::stoul throws logic_errors, not just
    // runtime_errors): report a miss, the caller drops the stale directory
    // entry and falls through. Never let one bad peer kill this node.
    link->client.reset();
    return {};
  }
}

bool CoopCluster::replica_write(NodeId target, std::string_view key,
                                std::string_view stored,
                                std::uint32_t raw_len, Codec codec,
                                std::uint32_t flags, std::uint32_t cost,
                                std::uint32_t exptime_s) {
  KvsStore* store = nullptr;
  std::string host;
  std::uint16_t port = 0;
  {
    util::MutexLock lock(mutex_);
    const auto it = nodes_.find(target);
    if (it == nodes_.end()) return false;   // node left concurrently
    if (!it->second.live) return false;     // crashed target rejects writes
    store = it->second.store;
    host = it->second.host;
    port = it->second.port;
  }
  if (port == 0) {
    // In-process replica write: the target's stored hook registers the
    // replica in the directory under its shard lock, same as a home write.
    // set_stored keeps a compressed payload verbatim; identity delegates
    // to set(), letting the target apply its own compression config.
    return store->set_stored(key, stored, raw_len, codec, flags, cost,
                             exptime_s);
  }
  const std::shared_ptr<PeerLink> link = link_for(target);
  util::MutexLock io(link->mutex);
  try {
    if (!link->client) {
      link->client = std::make_unique<KvsClient>(host, port);
    }
    return link->client->peer_set(key, stored, flags, cost, exptime_s,
                                  static_cast<std::uint32_t>(codec), raw_len);
  } catch (const std::exception&) {
    // A dead or byzantine replica must never fail the home node's write
    // path with an exception; the ack policy decides what a false means.
    link->client.reset();
    return false;
  }
}

bool CoopCluster::peer_delete(NodeId holder, std::string_view key) {
  KvsStore* store = nullptr;
  std::string host;
  std::uint16_t port = 0;
  {
    util::MutexLock lock(mutex_);
    const auto it = nodes_.find(holder);
    if (it == nodes_.end()) return false;
    if (!it->second.live) return false;  // a crash already dropped the pair
    store = it->second.store;
    host = it->second.host;
    port = it->second.port;
  }
  if (port == 0) return store->del(key);
  const std::shared_ptr<PeerLink> link = link_for(holder);
  util::MutexLock io(link->mutex);
  try {
    if (!link->client) {
      link->client = std::make_unique<KvsClient>(host, port);
    }
    return link->client->peer_del(key);
  } catch (const std::exception&) {
    link->client.reset();
    return false;
  }
}

// ---------------------------------------------------------------------------
// Eviction hook + last-replica guard
// ---------------------------------------------------------------------------

void CoopCluster::on_node_eviction(NodeId id, const EvictedItem& item) {
  util::MutexLock lock(mutex_);
  std::string key(item.key);
  // remove() returns true exactly when this dropped the LAST replica. The
  // park copies the STORED form out of the chunk — compressed pairs park
  // compressed, charging their compressed chunk size.
  if (directory_.remove(key, id) && config_.preserve_last_replica) {
    guard_park_locked(GuardEntry{std::move(key), std::string(item.stored),
                                 item.raw_len, item.codec, item.flags,
                                 item.cost, item.charged_bytes,
                                 /*deadline=*/0, item.remaining_ttl_s});
  }
}

void CoopCluster::on_node_stored(NodeId id, std::string_view key) {
  util::MutexLock lock(mutex_);
  const std::string key_str(key);
  directory_.add(key_str, id);
  // A fresh write supersedes any parked last replica.
  if (const auto it = guard_index_.find(key_str); it != guard_index_.end()) {
    guard_drop_locked(it->second);
  }
}

void CoopCluster::guard_park_locked(GuardEntry entry) {
  if (guard_capacity_ == 0 || entry.charged_bytes > guard_capacity_) return;
  // A parked key has zero replicas, so a duplicate park can only follow a
  // stale entry; replace it.
  if (const auto it = guard_index_.find(entry.key);
      it != guard_index_.end()) {
    guard_drop_locked(it->second);
  }
  while (guard_used_ + entry.charged_bytes > guard_capacity_) {
    if (guard_fifo_.empty()) {
      // The byte ledger claims usage but nothing is parked: accounting
      // drift. The old bare assert compiled away in release builds and
      // this loop then spun forever; instead, record the break, resync
      // the ledger to the (empty) FIFO and carry on parking.
      assert(false && "guard byte ledger drifted from the FIFO");
      ++counters_.guard_accounting_breaks;
      guard_used_ = 0;
      break;
    }
    ++counters_.guard_squeezed;
    guard_drop_locked(guard_fifo_.begin());
  }
  entry.deadline = counters_.requests + config_.guard_lease_requests;
  guard_used_ += entry.charged_bytes;
  guard_fifo_.push_back(std::move(entry));
  guard_index_[guard_fifo_.back().key] = std::prev(guard_fifo_.end());
  ++counters_.guard_parked;
}

std::optional<CoopCluster::GuardEntry> CoopCluster::guard_take(
    const std::string& key) {
  util::MutexLock lock(mutex_);
  const auto it = guard_index_.find(key);
  if (it == guard_index_.end()) return std::nullopt;
  const auto list_it = it->second;
  guard_used_ -= list_it->charged_bytes;
  GuardEntry entry = std::move(*list_it);
  guard_index_.erase(it);
  guard_fifo_.erase(list_it);
  if (entry.deadline <= counters_.requests) {
    ++counters_.guard_expired;
    return std::nullopt;
  }
  return entry;
}

void CoopCluster::guard_expire_front_locked() {
  // Leases are granted in request order with a constant term, so the FIFO
  // front always carries the earliest deadline.
  while (!guard_fifo_.empty() &&
         guard_fifo_.front().deadline <= counters_.requests) {
    ++counters_.guard_expired;
    guard_drop_locked(guard_fifo_.begin());
  }
}

void CoopCluster::guard_drop_locked(std::list<GuardEntry>::iterator it) {
  guard_used_ -= it->charged_bytes;
  guard_index_.erase(it->key);
  guard_fifo_.erase(it);
}

// ---------------------------------------------------------------------------
// CoopNodeClient
// ---------------------------------------------------------------------------

KvsBatchResult CoopNodeClient::execute(const KvsBatch& batch) {
  KvsBatchResult out;
  out.results.reserve(batch.size());
  for (const KvsOp& op : batch.ops()) {
    KvsOpResult r;
    switch (op.type) {
      case KvsOpType::kGet:
      case KvsOpType::kIqGet: {
        GetResult g =
            cluster_.get(self_, op.key, op.type == KvsOpType::kIqGet);
        r.ok = g.hit;
        r.value = std::move(g.value);
        r.flags = g.flags;
        break;
      }
      case KvsOpType::kSet:
        r.ok = cluster_.set(self_, op.key, op.value, op.flags, op.cost,
                            op.exptime_s);
        break;
      case KvsOpType::kIqSet:
        r.ok = cluster_.iqset(self_, op.key, op.value, op.flags,
                              op.exptime_s);
        break;
      case KvsOpType::kDel:
        r.ok = cluster_.del(self_, op.key);
        break;
    }
    out.results.push_back(std::move(r));
  }
  return out;
}

}  // namespace camp::kvs
