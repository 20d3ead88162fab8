#include "kvs/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <unordered_map>

#include "kvs/cluster.h"
#include "kvs/compress.h"
#include "kvs/net_io.h"

namespace camp::kvs {

namespace {

/// Flush replies into the write queue in chunks of this size, so writev
/// gets several mid-sized buffers to batch instead of one giant string.
constexpr std::size_t kReplyChunkBytes = 64u << 10;

/// Per-connection read budget for one event-loop round. Level-triggered
/// epoll re-reports a connection with unread bytes, so capping here costs
/// nothing and keeps one fast writer from starving its worker siblings.
constexpr std::size_t kReadBudgetBytes = 256u << 10;

/// Max buffers per writev batch (well under IOV_MAX everywhere).
constexpr std::size_t kMaxIov = 8;

/// One connection, owned exclusively by its worker: fd, incremental decode
/// state, and the pending-reply write queue (a deque of chunks so flushes
/// can writev several at once). `out_offset` is the already-sent prefix of
/// the front chunk.
struct Connection {
  int fd = -1;
  CommandDecoder decoder;
  std::deque<std::string> outq;
  std::size_t out_offset = 0;
  std::size_t out_bytes = 0;  // total unsent reply bytes across outq
  bool reg_read = true;       // current epoll interest
  bool reg_write = false;
  bool reads_paused = false;  // backpressure: outq past the high watermark
  bool closing = false;       // flush outq, then close (quit / fatal error)
  bool drop = false;          // close now, pending replies are forfeit
};

void enqueue_reply(Connection& conn, std::string&& chunk) {
  if (chunk.empty()) return;
  conn.out_bytes += chunk.size();
  conn.outq.push_back(std::move(chunk));
}

/// writev as much of the queue as the socket accepts. Returns false when
/// the connection died mid-write.
bool flush_replies(Connection& conn) {
  while (conn.out_bytes > 0) {
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    for (const std::string& chunk : conn.outq) {
      if (niov == kMaxIov) break;
      const std::size_t skip = niov == 0 ? conn.out_offset : 0;
      iov[niov].iov_base = const_cast<char*>(chunk.data() + skip);
      iov[niov].iov_len = chunk.size() - skip;
      ++niov;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    const ssize_t n =
        net::retry_eintr([&] { return ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL); });
    switch (net::classify_send(n)) {
      case net::IoStatus::kProgress:
        break;
      case net::IoStatus::kWouldBlock:
        return true;  // epoll will tell us when to resume
      default:
        return false;
    }
    std::size_t sent = static_cast<std::size_t>(n);
    conn.out_bytes -= sent;
    while (sent > 0) {
      std::string& front = conn.outq.front();
      const std::size_t remaining = front.size() - conn.out_offset;
      if (sent < remaining) {
        conn.out_offset += sent;
        break;
      }
      sent -= remaining;
      conn.out_offset = 0;
      conn.outq.pop_front();
    }
  }
  return true;
}

}  // namespace

namespace {

/// Mirror ServerConfig::compression into the store's engine config before
/// the store is built — the engine owns compression, the server flag is
/// just the deployment knob.
StoreConfig with_compression(StoreConfig store, bool enabled) {
  store.engine.compression.enabled = enabled;
  return store;
}

}  // namespace

KvsServer::KvsServer(ServerConfig config, const PolicyFactory& policy_factory,
                     const util::Clock& clock)
    : config_(std::move(config)),
      store_(with_compression(config_.store, config_.compression),
             policy_factory, clock) {}

KvsServer::~KvsServer() { stop(); }

void KvsServer::attach_cluster(CoopCluster* cluster, std::uint32_t self_node) {
  if (running_.load()) {
    throw std::logic_error(
        "KvsServer: attach_cluster must run before start()");
  }
  cluster_ = cluster;
  self_node_ = self_node;
}

void KvsServer::start() {
  if (running_.load()) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("KvsServer: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  // Everything from here until the threads spawn must release the fds it
  // opened on failure: stop() is a no-op while running_ is still false, so
  // a throwing start() would otherwise leak them. Worker event loops close
  // their own fds on destruction.
  const auto fail = [this](const std::string& what) {
    workers_.clear();
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("KvsServer: " + what);
  };

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    fail("bad bind address");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    fail(std::string("bind failed: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    fail("listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  std::size_t pool = config_.workers;
  if (pool == 0) {
    pool = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.clear();
  workers_.reserve(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    auto worker = std::make_unique<Worker>();
    try {
      worker->loop = std::make_unique<EventLoop>();
    } catch (const std::exception& e) {
      fail(e.what());
    }
    workers_.push_back(std::move(worker));
  }

  running_.store(true);
  next_worker_ = 0;
  accept_failures_.store(0, std::memory_order_relaxed);
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    worker->thread = std::thread([this, w] { worker_loop(*w); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  if (cluster_ != nullptr && config_.cluster_repair_interval_ms > 0) {
    repair_driver_ = std::make_unique<RepairDriver>(
        [this] { (void)cluster_->repair_tick(); },
        std::chrono::milliseconds(config_.cluster_repair_interval_ms));
  }
}

void KvsServer::stop() {
  // Stop the anti-entropy thread first: its ticks drive peer transports,
  // which must not outlive the serving loops they talk to.
  repair_driver_.reset();
  if (!running_.exchange(false)) return;
  // Unblock the acceptor with shutdown() and join it BEFORE touching
  // listen_fd_ again: close()/reassignment while accept() still reads the
  // member would race (and could hand a recycled fd to accept()).
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Workers never park in socket I/O (everything is non-blocking); one
  // wake() per loop suffices to get each out of EventLoop::wait.
  for (auto& worker : workers_) worker->loop->wake();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
    // The acceptor may have handed over a connection after the worker's
    // final adoption pass; with both threads joined, whatever is left in
    // pending_fds belongs to no one — close it here. Joining made this
    // thread the sole owner, but take the lock anyway: it is uncontended,
    // and it keeps every pending_fds access uniformly guarded.
    util::MutexLock lock(worker->mutex);
    for (const int fd : worker->pending_fds) ::close(fd);
    worker->pending_fds.clear();
  }
  workers_.clear();
}

void KvsServer::accept_loop() {
  while (running_.load()) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (!running_.load()) break;
      // Transient per-connection races are retried immediately; everything
      // else (EMFILE/ENFILE fd exhaustion, ENOBUFS/ENOMEM, ...) is counted
      // and backed off — a persistent failure must not spin this thread
      // hot, and an operator must be able to see it happening (STATS
      // `accept_failures`).
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Worker& worker = *workers_[next_worker_++ % workers_.size()];
    {
      util::MutexLock lock(worker.mutex);
      worker.pending_fds.push_back(fd);
    }
    worker.loop->wake();
  }
}

void KvsServer::worker_loop(Worker& worker) {
  EventLoop& loop = *worker.loop;
  // Tag stability: the loop hands back raw Connection pointers, so each
  // lives behind a unique_ptr in this fd-keyed map.
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  std::vector<EventLoop::Event> events;
  std::vector<int> adopted;
  char chunk[16 * 1024];

  const std::size_t high_watermark =
      std::max<std::size_t>(config_.write_high_watermark, kReplyChunkBytes);
  const std::size_t low_watermark = high_watermark / 2;

  const auto destroy = [&](Connection* conn) {
    loop.remove(conn->fd);
    ::close(conn->fd);
    conns.erase(conn->fd);
  };

  // Reconcile a connection's epoll interest with its current state: read
  // while not backpressured, write while replies are pending.
  const auto update_interest = [&](Connection* conn) {
    const bool want_read = !conn->reads_paused && !conn->closing;
    const bool want_write = conn->out_bytes > 0;
    if (want_read != conn->reg_read || want_write != conn->reg_write) {
      loop.modify(conn->fd, want_read, want_write, conn);
      conn->reg_read = want_read;
      conn->reg_write = want_write;
    }
  };

  // Drain complete commands out of the decoder while the write queue is
  // under the watermark, appending replies in kReplyChunkBytes chunks.
  const auto process_commands = [&](Connection* conn) {
    if (conn->closing || conn->drop) return;
    conn->reads_paused = false;
    std::string out;
    DecodedCommand dc;
    for (;;) {
      if (conn->out_bytes + out.size() >= high_watermark) {
        // Backpressure: the peer is not draining replies. Park the
        // decoder (it keeps any buffered bytes) and stop reading until
        // flush_replies gets the queue back under the low watermark.
        conn->reads_paused = true;
        break;
      }
      if (out.size() >= kReplyChunkBytes) {
        enqueue_reply(*conn, std::move(out));
        out = {};
      }
      const CommandDecoder::Status status = conn->decoder.next(dc);
      if (status == CommandDecoder::Status::kNeedMore) break;
      if (status == CommandDecoder::Status::kFatalError) {
        // Unframeable stream (malformed storage header / endless line):
        // answer ERROR and drop the connection, memcached-style.
        out += format_error();
        conn->closing = true;
        break;
      }
      if (status == CommandDecoder::Status::kProtocolError) {
        out += format_error();
        continue;
      }
      bool keep = false;
      try {
        keep = apply_command(dc, out);
      } catch (const std::exception&) {
        // A cluster-routed command can throw (stale node binding, peer
        // transport failure surfacing as a logic error): answer ERROR
        // and drop this connection instead of letting the exception
        // terminate the worker (and with it the whole server).
        out += format_error();
        keep = false;
      }
      if (!keep) {
        conn->closing = true;
        break;
      }
    }
    enqueue_reply(*conn, std::move(out));
  };

  // Post-I/O bookkeeping shared by the read and write paths: try to flush,
  // resume a backpressured reader once the peer drained, and retire the
  // connection when it is done for.
  const auto settle = [&](Connection* conn) {
    if (!conn->drop && !flush_replies(*conn)) conn->drop = true;
    if (!conn->drop && conn->reads_paused && conn->out_bytes <= low_watermark) {
      // The decoder may hold complete commands that arrived before the
      // pause; serve them now that there is room.
      process_commands(conn);
      if (!flush_replies(*conn)) conn->drop = true;
    }
    if (conn->drop || (conn->closing && conn->out_bytes == 0)) {
      destroy(conn);
      return;
    }
    update_interest(conn);
  };

  const auto handle_readable = [&](Connection* conn) {
    std::size_t budget = kReadBudgetBytes;
    while (budget > 0 && !conn->drop) {
      const ssize_t n = net::retry_eintr(
          [&] { return ::recv(conn->fd, chunk, sizeof(chunk), MSG_DONTWAIT); });
      const net::IoStatus status = net::classify_recv(n);
      if (status == net::IoStatus::kProgress) {
        conn->decoder.feed(
            std::string_view(chunk, static_cast<std::size_t>(n)));
        budget -= std::min(budget, static_cast<std::size_t>(n));
        continue;
      }
      if (status == net::IoStatus::kWouldBlock) break;
      // EOF or hard error: whatever replies are still queued have no
      // reader worth waiting for.
      conn->drop = true;
    }
    process_commands(conn);
  };

  while (running_.load()) {
    // Adopt connections the acceptor handed over.
    {
      util::MutexLock lock(worker.mutex);
      adopted.swap(worker.pending_fds);
    }
    for (const int fd : adopted) {
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      Connection* tag = conn.get();
      conns.emplace(fd, std::move(conn));
      loop.add(fd, /*want_read=*/true, /*want_write=*/false, tag);
    }
    adopted.clear();

    loop.wait(events, -1);
    if (!running_.load()) break;

    for (const EventLoop::Event& ev : events) {
      auto* conn = static_cast<Connection*>(ev.tag);
      if (ev.hangup && !ev.readable && !ev.writable) {
        destroy(conn);
        continue;
      }
      if (ev.readable) handle_readable(conn);
      // One settle per event: flush (covers ev.writable), resume a
      // backpressured reader, retire or re-arm interest.
      settle(conn);
    }
  }

  for (auto& [fd, conn] : conns) {
    loop.remove(fd);
    ::close(fd);
  }
  conns.clear();
  // Connections handed over after the last adoption pass still belong to
  // this worker; close them too.
  util::MutexLock lock(worker.mutex);
  for (const int fd : worker.pending_fds) ::close(fd);
  worker.pending_fds.clear();
}

bool KvsServer::apply_command(const DecodedCommand& dc, std::string& out) {
  const Command& cmd = dc.cmd;
  switch (cmd.type) {
    case CommandType::kGet:
    case CommandType::kIqGet: {
      const bool iq = cmd.type == CommandType::kIqGet;
      const GetResult result =
          cluster_ != nullptr
              ? cluster_->get(self_node_, cmd.key, iq)
              : (iq ? store_.iqget(cmd.key) : store_.get(cmd.key));
      if (result.hit) {
        out += format_value(cmd.key, result.flags, result.value);
      }
      for (const std::string& key : cmd.extra_keys) {
        const GetResult extra = cluster_ != nullptr
                                    ? cluster_->get(self_node_, key)
                                    : store_.get(key);
        if (extra.hit) {
          out += format_value(key, extra.flags, extra.value);
        }
      }
      out += format_end();
      break;
    }
    case CommandType::kPGet: {
      // Peer fetch: ALWAYS the raw local store, never the coop path — a
      // peer fetch must be terminal. The reply carries the stored cost so
      // the fetching node's promotion preserves it, and ships the pair in
      // its STORED form: compressed pairs travel compressed (with codec +
      // raw_len trailing tokens) instead of paying a decompress here and a
      // recompress at the fetching node.
      const StoredGetResult result = store_.get_stored(cmd.key);
      if (result.hit) {
        out += format_value_stored(cmd.key, result.flags, result.cost,
                                   result.remaining_ttl_s,
                                   static_cast<std::uint32_t>(result.codec),
                                   result.raw_len, result.stored);
      }
      out += format_end();
      break;
    }
    case CommandType::kSet:
    case CommandType::kIqSet: {
      bool stored;
      if (cluster_ != nullptr) {
        stored = cmd.type == CommandType::kSet
                     ? cluster_->set(self_node_, cmd.key, dc.payload,
                                     cmd.flags, cmd.cost, cmd.exptime)
                     : cluster_->iqset(self_node_, cmd.key, dc.payload,
                                       cmd.flags, cmd.exptime);
      } else {
        stored = cmd.type == CommandType::kSet
                     ? store_.set(cmd.key, dc.payload, cmd.flags, cmd.cost,
                                  cmd.exptime)
                     : store_.iqset(cmd.key, dc.payload, cmd.flags,
                                    cmd.exptime);
      }
      if (!cmd.noreply) out += format_stored(stored);
      break;
    }
    case CommandType::kPSet: {
      // Replica write: ALWAYS the raw local store, never the coop path — a
      // replica write is terminal (the fan-out already ran at the home
      // node; re-routing here would fan out again). The store's stored
      // hook registers the replica in the shared directory.
      bool stored = false;
      if (cmd.codec != 0) {
        // Already-compressed payload: validate before storing. A payload
        // that does not decode to exactly raw_len bytes would poison every
        // future get of this key, so a byzantine or mixed-version peer gets
        // NOT_STORED, not a stored landmine.
        std::string decoded;
        if (decompress_value(static_cast<Codec>(cmd.codec), dc.payload,
                             cmd.raw_len, decoded)) {
          stored = store_.set_stored(cmd.key, dc.payload, cmd.raw_len,
                                     static_cast<Codec>(cmd.codec), cmd.flags,
                                     cmd.cost, cmd.exptime);
        }
      } else {
        stored =
            store_.set(cmd.key, dc.payload, cmd.flags, cmd.cost, cmd.exptime);
      }
      if (!cmd.noreply) out += format_stored(stored);
      break;
    }
    case CommandType::kDelete: {
      const bool deleted = cluster_ != nullptr
                               ? cluster_->del(self_node_, cmd.key)
                               : store_.del(cmd.key);
      if (!cmd.noreply) out += format_deleted(deleted);
      break;
    }
    case CommandType::kPDel: {
      out += format_deleted(store_.del(cmd.key));  // raw local, terminal
      break;
    }
    case CommandType::kStats: {
      const EngineStats s = store_.aggregated_stats();
      out += format_stat("policy", store_.policy_name());
      out += format_stat("workers", std::to_string(workers_.size()));
      out += format_stat("io_backend", EventLoop::backend());
      out += format_stat("accept_failures",
                         std::to_string(accept_failures()));
      out += format_stat("store_shards", std::to_string(store_.shard_count()));
      out += format_stat("gets", std::to_string(s.gets));
      out += format_stat("hits", std::to_string(s.hits));
      out += format_stat("sets", std::to_string(s.sets));
      out += format_stat("deletes", std::to_string(s.deletes));
      out += format_stat("items", std::to_string(s.items));
      out += format_stat("value_bytes", std::to_string(s.value_bytes));
      out += format_stat("rejected_sets", std::to_string(s.rejected_sets));
      out += format_stat("expired", std::to_string(s.expired));
      out += format_stat("slab_reassignments",
                         std::to_string(s.slab_reassignments));
      // Compression telemetry. stored_raw_bytes == value_bytes (client-
      // visible resident bytes); stored_compressed_bytes is what the slab
      // chunks actually hold — the gap is the capacity the codec bought.
      out += format_stat("compression_enabled",
                         config_.compression ? "1" : "0");
      out += format_stat("stored_raw_bytes", std::to_string(s.value_bytes));
      out += format_stat("stored_compressed_bytes",
                         std::to_string(s.stored_bytes));
      out += format_stat("compress_bails", std::to_string(s.compress_bails));
      out += format_stat("decompress_failures",
                         std::to_string(s.decompress_failures));
      // Precision self-tuning telemetry: the live precision whenever the
      // policy is retunable, plus the duel ledger when the tuner is on.
      if (const auto precision = store_.policy_precision()) {
        out += format_stat("camp_precision_current",
                           std::to_string(*precision));
      }
      if (store_.autotune_enabled()) {
        const core::AutoTunerCounters t = store_.autotune_counters();
        out += format_stat("autotune_retunes", std::to_string(t.retunes));
        out += format_stat("autotune_windows", std::to_string(t.windows));
        out += format_stat("autotune_sampled", std::to_string(t.sampled));
        const std::vector<int> candidates = store_.autotune_candidates();
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          out += format_stat("autotune_psel_" + std::to_string(candidates[i]),
                             std::to_string(t.psel[i]));
        }
      }
      if (cluster_ != nullptr) {
        const ClusterCounters c = cluster_->counters();
        out += format_stat("cluster_node", std::to_string(self_node_));
        out += format_stat("cluster_nodes",
                           std::to_string(cluster_->node_count()));
        out += format_stat("cluster_requests", std::to_string(c.requests));
        out += format_stat("cluster_local_hits",
                           std::to_string(c.local_hits));
        out += format_stat("cluster_remote_hits",
                           std::to_string(c.remote_hits));
        out += format_stat("cluster_guard_hits",
                           std::to_string(c.guard_hits));
        out += format_stat("cluster_misses", std::to_string(c.misses));
        out += format_stat("cluster_transfer_bytes",
                           std::to_string(c.transfer_bytes));
        out += format_stat("cluster_promotions",
                           std::to_string(c.promotions));
        out += format_stat("cluster_replication",
                           std::to_string(cluster_->config().replication));
        out += format_stat("cluster_replica_writes",
                           std::to_string(c.replica_writes));
        out += format_stat("cluster_replica_write_failures",
                           std::to_string(c.replica_write_failures));
        // The release-build drift signal (always 0 in a healthy cluster);
        // an operator must be able to poll for it.
        out += format_stat("cluster_guard_accounting_breaks",
                           std::to_string(c.guard_accounting_breaks));
        // Anti-entropy ledger (kvs/repair.h): read repair, hinted handoff
        // and the background sweep each meter their own convergence work.
        out += format_stat("cluster_read_repairs",
                           std::to_string(c.repair.read_repairs));
        out += format_stat("cluster_hints_queued",
                           std::to_string(c.repair.hints_queued));
        out += format_stat("cluster_hints_replayed",
                           std::to_string(c.repair.hints_replayed));
        out += format_stat("cluster_hints_dropped",
                           std::to_string(c.repair.hints_dropped));
        out += format_stat("cluster_hints_obsolete",
                           std::to_string(c.repair.hints_obsolete));
        out += format_stat("cluster_sweep_ticks",
                           std::to_string(c.repair.sweep_ticks));
        out += format_stat("cluster_sweep_keys_scanned",
                           std::to_string(c.repair.sweep_keys_scanned));
        out += format_stat("cluster_sweep_recopies",
                           std::to_string(c.repair.sweep_recopies));
        out += format_stat("cluster_sweep_failures",
                           std::to_string(c.repair.sweep_failures));
      }
      out += format_end();
      break;
    }
    case CommandType::kFlushAll: {
      if (cluster_ != nullptr) {
        cluster_->flush_node(self_node_);  // keeps the directory honest
      } else {
        store_.flush_all();
      }
      out += "OK\r\n";
      break;
    }
    case CommandType::kVersion: {
      out += "VERSION camp-kvs 1.0.0\r\n";
      break;
    }
    case CommandType::kQuit:
      return false;
  }
  return true;
}

}  // namespace camp::kvs
