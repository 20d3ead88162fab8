// TCP server speaking the memcached text protocol subset (kvs/protocol.h),
// fronting a KvsStore — the repository's stand-in for IQ Twemcache in the
// Section 4 implementation experiments.
//
// Threading model: one acceptor thread plus a FIXED pool of worker threads
// (shard-per-core: `workers == 0` sizes the pool to hardware_concurrency).
// The acceptor hands each accepted connection to a worker round-robin; the
// worker owns it exclusively for its whole lifetime and multiplexes all of
// its connections with an epoll EventLoop (kvs/event_loop.h). Sockets are
// non-blocking end to end: per readable connection the worker drains EVERY
// complete pipelined command out of the read buffer (incremental
// CommandDecoder), accumulates replies into a per-connection write queue,
// and flushes with writev — so one stalled (never-reading) peer can no
// longer park the worker in send() and starve its other connections. Past
// `write_high_watermark` pending reply bytes the worker stops decoding
// that connection's commands until the peer drains (backpressure), which
// bounds per-connection server memory at the watermark plus one reply.
//
// Keys are hash-partitioned across the store's engine shards, and each
// shard's mutex is the only lock a request takes on the policy path (the
// paper's Section 4.1 recipe: hash-partitioned, independently locked
// queues).
//
// stop() wakes every worker through its event loop and joins all threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kvs/event_loop.h"
#include "kvs/protocol.h"
#include "kvs/repair.h"
#include "kvs/store.h"
#include "util/mutex.h"

namespace camp::kvs {

class CoopCluster;

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = pick an ephemeral port (see port())
  /// Worker pool size; 0 = one worker per hardware thread.
  std::size_t workers = 0;
  /// Per-connection pending-reply ceiling. Once a connection's unsent
  /// reply bytes exceed this, the worker stops decoding further commands
  /// from it until the peer drains below half the watermark — backpressure
  /// instead of unbounded buffering for a slow or never-reading client.
  std::size_t write_high_watermark = 256u << 10;
  /// With a cluster attached and this > 0, start() spawns a RepairDriver
  /// thread running cluster->repair_tick() on this interval (anti-entropy
  /// in live deployments). 0 (default) = manual repair_tick() only — the
  /// deterministic mode every test and figure uses.
  std::uint32_t cluster_repair_interval_ms = 0;
  /// Transparent value compression (kvs/compress.h): mirrored into
  /// store.engine.compression.enabled at construction. Off by default so
  /// the identity chunk layout — and every pre-compression baseline —
  /// stays byte-identical.
  bool compression = false;
  StoreConfig store;
};

class KvsServer {
 public:
  KvsServer(ServerConfig config, const PolicyFactory& policy_factory,
            const util::Clock& clock);
  ~KvsServer();
  KvsServer(const KvsServer&) = delete;
  KvsServer& operator=(const KvsServer&) = delete;

  /// Bind, listen, spawn the worker pool and the acceptor. Throws
  /// std::runtime_error on socket errors.
  void start();
  void stop();

  /// Serve as node `self_node` of a cooperative cluster (kvs/cluster.h):
  /// client get/iqget/set/iqset/delete traffic routes through the cluster's
  /// four-step coop path; pget/pdel (peer ops) and everything else stay on
  /// the local store. Call before start(), with `cluster` outliving the
  /// server; pass nullptr to detach. The caller is responsible for having
  /// joined this server's store() to the cluster under the same node id.
  void attach_cluster(CoopCluster* cluster, std::uint32_t self_node);

  /// Actual listening port (resolves ephemeral 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] KvsStore& store() { return store_; }
  [[nodiscard]] bool running() const { return running_.load(); }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// accept() failures that were NOT transient (fd exhaustion such as
  /// EMFILE/ENFILE, ENOBUFS/ENOMEM, ...). Each one also triggers a short
  /// acceptor backoff so a persistent failure cannot spin the thread hot.
  /// Surfaced in STATS as `accept_failures`.
  [[nodiscard]] std::uint64_t accept_failures() const {
    return accept_failures_.load(std::memory_order_relaxed);
  }

 private:
  /// One worker thread's shared state. The worker exclusively owns its
  /// connections and its event loop; the acceptor only touches
  /// `pending_fds` (under `mutex`) and the loop's wake() channel (which is
  /// thread-safe by design). The worker never blocks in socket I/O — only
  /// in EventLoop::wait — so stop() needs nothing beyond a wake().
  struct Worker {
    std::thread thread;
    std::unique_ptr<EventLoop> loop;
    // kServerWorker is the lowest rank in the hierarchy: the worker takes
    // this lock briefly around fd handoff and never holds it across store
    // or cluster calls.
    util::Mutex mutex{util::LockRank::kServerWorker};
    std::vector<int> pending_fds CAMP_GUARDED_BY(mutex);
  };

  void accept_loop();
  void worker_loop(Worker& worker);
  /// Execute one decoded command against the store, appending the reply to
  /// `out`. Returns false when the connection must close (quit).
  bool apply_command(const DecodedCommand& dc, std::string& out);

  ServerConfig config_;
  KvsStore store_;
  CoopCluster* cluster_ = nullptr;  // optional cooperative-cluster binding
  std::uint32_t self_node_ = 0;
  /// Background anti-entropy (cluster_repair_interval_ms > 0 only); owns
  /// no lock, so it sits outside the rank hierarchy entirely.
  std::unique_ptr<RepairDriver> repair_driver_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> accept_failures_{0};
  std::thread acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t next_worker_ = 0;  // acceptor-only round-robin cursor
};

}  // namespace camp::kvs
