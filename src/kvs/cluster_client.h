// ClusterClient: a KvsApi that spreads one logical KvsBatch across the
// nodes of a cooperative cluster.
//
// Each op routes to its key's home node on a consistent-hash ring (the same
// ring geometry CoopCluster uses, so client and servers agree on
// placement). The batch splits into per-node sub-batches, which run over
// the node transports — pipelined KvsClient TCP connections for a real
// deployment, CoopNodeClient for the deterministic in-process cluster —
// and the per-node replies are stitched back into the original op order.
//
// With `parallel` set the sub-batches are issued concurrently (one thread
// per touched node, so a batch costs max(node latencies), not their sum);
// without it they run sequentially in ascending node order, which keeps a
// single-driver replay fully deterministic (the fig_coop_cluster baseline).
//
// With `replication` R > 1 (matching the cluster's ClusterConfig) reads
// gain failover: when a node's transport dies mid-batch and the failed
// sub-batch is all reads, each get re-routes to the key's next distinct
// ring replica — a surviving holder answers it as a local hit, so losing
// one of R nodes costs neither a miss spike nor a guard drain. Mutations
// never fail over (their outcome at the dead node is unknowable), so a
// failed sub-batch containing one rethrows the transport error instead.
//
// Failover composes with the cluster's anti-entropy machinery (kvs/repair.h)
// without the client doing anything: a failed-over read lands at a replica
// whose CoopCluster::get notices the home is live-but-missing the key and
// re-registers it there (read repair), so the window where this client
// still routes around a healed node actively heals that node's cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string_view>

#include "kvs/api.h"
#include "kvs/cluster.h"

namespace camp::kvs {

class ClusterClient final : public KvsApi {
 public:
  /// `virtual_nodes` and `replication` must match the cluster's ring
  /// geometry and ClusterConfig::replication (a replication of 0 is
  /// treated as 1).
  explicit ClusterClient(std::uint32_t virtual_nodes = 64,
                         bool parallel = true,
                         std::uint32_t replication = 1);

  /// Register node `id`'s transport (which must outlive the client and, in
  /// parallel mode, must not be shared with another node id — transports
  /// are driven from per-node threads).
  void add_node(ClusterNodeId id, KvsApi& transport);
  void remove_node(ClusterNodeId id);

  [[nodiscard]] ClusterNodeId home_node(std::string_view key) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Reads answered by a non-home replica after the home transport failed.
  [[nodiscard]] std::uint64_t failover_reads() const {
    return failover_reads_.load(std::memory_order_relaxed);
  }

  /// Split, execute per node, stitch results back into op order. Throws
  /// std::logic_error when no nodes are registered and std::runtime_error
  /// for a transport whose reply is not index-aligned with its sub-batch;
  /// transport errors propagate (parallel mode rethrows the first one
  /// after joining) unless replication > 1 read-failover absorbs them.
  [[nodiscard]] KvsBatchResult execute(const KvsBatch& batch) override;

 private:
  struct SubBatch {
    KvsApi* transport = nullptr;
    KvsBatch batch;
    std::vector<std::size_t> op_indices;
  };

  /// Execute one node's share, retrying all-read sub-batches per key on
  /// the next ring replicas when the primary transport throws.
  [[nodiscard]] KvsBatchResult run_sub(ClusterNodeId primary, SubBatch& sub);
  [[nodiscard]] KvsBatchResult failover_reads_of(ClusterNodeId primary,
                                                 const KvsBatch& batch);
  /// The one failover-eligibility rule both execution modes share: only
  /// all-read sub-batches may re-route, and only with replication > 1.
  [[nodiscard]] bool can_fail_over(const KvsBatch& batch) const;
  /// The one reply-alignment contract both modes enforce: a transport must
  /// answer index-aligned or the whole batch errors (never UB in scatter).
  static void check_alignment(ClusterNodeId primary, std::size_t got,
                              std::size_t want);

  // Deliberately mutex-free: ring_/nodes_/parallel_/replication_ are
  // const-after-setup (add_node/remove_node run before traffic, from the
  // owning thread), and in parallel mode the per-node worker threads touch
  // DISJOINT SubBatch slots plus their own transports, joining before
  // execute() returns — the join is the only publication point. The one
  // cell written from inside the fan-out is the failover counter, which is
  // atomic for exactly that reason. If add/remove-node-under-traffic ever
  // becomes a requirement, nodes_ needs a readers-writer lock ranked below
  // kClusterPeerLink.
  coop::HashRing ring_;
  std::map<ClusterNodeId, KvsApi*> nodes_;
  bool parallel_;
  std::uint32_t replication_;
  std::atomic<std::uint64_t> failover_reads_{0};
};

}  // namespace camp::kvs
