// Blocking TCP client for the KVS server — the repository's counterpart of
// the Whalin memcached client used in the paper's Section 4 experiments.
//
// The transport is batch-first: execute() encodes the whole KvsBatch into
// one contiguous buffer (runs of plain gets become a single memcached
// multi-get command, mutations may carry noreply), issues exactly ONE
// write() for it, then parses the server's pipelined replies back onto op
// indices. The one-shot get/set/... methods inherited from KvsApi are
// single-op batches and therefore keep the historical one round trip per
// operation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "kvs/api.h"
#include "kvs/engine.h"

namespace camp::kvs {

class KvsClient final : public KvsApi {
 public:
  /// Connects immediately; throws std::runtime_error on failure.
  KvsClient(const std::string& host, std::uint16_t port);
  ~KvsClient() override;
  KvsClient(const KvsClient&) = delete;
  KvsClient& operator=(const KvsClient&) = delete;

  /// One write() per batch; replies are read until every non-noreply op is
  /// resolved. noreply mutations come back ok=true, acked=false.
  [[nodiscard]] KvsBatchResult execute(const KvsBatch& batch) override;

  /// Pipelined multi-key get ("get k1 k2 ..."): returns hits only.
  [[nodiscard]] std::map<std::string, GetResult> multi_get(
      const std::vector<std::string>& keys);

  /// Cluster peer fetch ("pget <key>"): a raw local get at the peer that
  /// bypasses its cooperative routing. The result carries the stored cost
  /// (VALUE's optional 4th token) so a promotion preserves it, and the
  /// pair's STORED form — compressed pairs travel compressed, with their
  /// codec tag and raw length in the reply's trailing tokens.
  [[nodiscard]] StoredGetResult peer_get(std::string_view key);

  /// Cluster peer delete ("pdel <key>"): raw local delete at the peer.
  bool peer_del(std::string_view key);

  /// Cluster peer store ("pset <key> ..."): a raw local set at the peer
  /// that bypasses its cooperative routing — the replication-factor-R
  /// write fan-out lands replica copies through this. `codec` != 0 marks
  /// `value` as an already-compressed payload decoding to `raw_len` bytes
  /// (the peer validates by decoding); codec 0 sends the legacy raw form.
  bool peer_set(std::string_view key, std::string_view value,
                std::uint32_t flags, std::uint32_t cost,
                std::uint32_t exptime_s = 0, std::uint32_t codec = 0,
                std::uint32_t raw_len = 0);

  [[nodiscard]] std::map<std::string, std::string> stats();
  void flush_all();
  [[nodiscard]] std::string version();

  /// Number of send() syscalls that transmitted bytes so far — the batch
  /// tests assert one write per executed batch. (A batch larger than the
  /// kernel send buffer needs more, with replies drained in between to
  /// avoid deadlocking against the server's own blocking reply writes.)
  [[nodiscard]] std::uint64_t write_count() const { return write_count_; }

 private:
  void send_all(std::string_view data);
  /// Block until the socket is readable — or, when `want_write` is set
  /// (unsent request bytes remain), readable OR writable. POLLOUT is never
  /// requested without pending output: a writable-but-idle socket would
  /// make poll() return instantly forever, turning the wait into a busy
  /// loop.
  void wait_ready(bool want_write);
  /// One blocking recv appended to inbuf_ (EINTR retried — a signal is not
  /// a peer disconnect), after dropping the bytes already parsed. Throws on
  /// EOF or socket error.
  void fill_inbuf();
  [[nodiscard]] std::string read_line();
  [[nodiscard]] std::string read_bytes(std::size_t n);

  int fd_ = -1;
  std::string inbuf_;
  std::size_t in_pos_ = 0;  // bytes of inbuf_ already parsed
  std::uint64_t write_count_ = 0;
};

}  // namespace camp::kvs
