// The batched KvsApi: KvsBatch/execute semantics on the in-process
// transport, the batch wire encoding (one contiguous buffer per batch —
// one write() per batch over TCP, asserted via KvsClient::write_count),
// the incremental server-side CommandDecoder, and transport equivalence
// between inproc and TCP.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kvs/client.h"
#include "kvs/inproc.h"
#include "kvs/protocol.h"
#include "kvs/server.h"
#include "policy/lru.h"

namespace camp::kvs {
namespace {

PolicyFactory lru_factory() {
  return [](std::uint64_t cap) {
    return std::make_unique<policy::LruCache>(cap);
  };
}

StoreConfig small_store() {
  StoreConfig c;
  c.shards = 2;
  c.engine.slab.memory_limit_bytes = 4u << 20;
  c.engine.slab.slab_size_bytes = 1u << 20;
  return c;
}

// ---- in-process transport ---------------------------------------------------

TEST(KvsBatch, InprocMixedOpsAlignWithResults) {
  util::SteadyClock clock;
  KvsStore store(small_store(), lru_factory(), clock);
  InprocClient client(store);

  KvsBatch batch;
  batch.add_set("a", "alpha", 1, 10)
      .add_set("b", "beta", 2, 20)
      .add_get("a")
      .add_get("missing")
      .add_del("b")
      .add_get("b");
  const KvsBatchResult r = client.execute(batch);
  ASSERT_EQ(r.size(), 6u);
  EXPECT_TRUE(r[0].ok);   // set a
  EXPECT_TRUE(r[1].ok);   // set b
  EXPECT_TRUE(r[2].ok);   // get a hits
  EXPECT_EQ(r[2].value, "alpha");
  EXPECT_EQ(r[2].flags, 1u);
  EXPECT_FALSE(r[3].ok);  // miss
  EXPECT_TRUE(r[4].ok);   // delete b
  EXPECT_FALSE(r[5].ok);  // b is gone — ops run in order
}

TEST(KvsBatch, InprocIqFlow) {
  util::SteadyClock clock;
  KvsStore store(small_store(), lru_factory(), clock);
  InprocClient client(store);

  KvsBatch batch;
  batch.add_iqget("computed").add_iqset("computed", "result", 0).add_iqget(
      "computed");
  const KvsBatchResult r = client.execute(batch);
  EXPECT_FALSE(r[0].ok);  // miss records the cost-capture timestamp
  EXPECT_TRUE(r[1].ok);
  EXPECT_TRUE(r[2].ok);
  EXPECT_EQ(r[2].value, "result");
}

TEST(KvsBatch, SingleOpWrappersRideTheBatchPath) {
  util::SteadyClock clock;
  KvsStore store(small_store(), lru_factory(), clock);
  InprocClient client(store);
  KvsApi& api = client;  // wrappers live on the interface, not the transport

  EXPECT_TRUE(api.set("k", "v", 3, 7));
  const GetResult g = api.get("k");
  EXPECT_TRUE(g.hit);
  EXPECT_EQ(g.value, "v");
  EXPECT_EQ(g.flags, 3u);
  EXPECT_TRUE(api.del("k"));
  EXPECT_FALSE(api.get("k").hit);
}

// ---- wire encoding ----------------------------------------------------------

TEST(KvsBatch, EncodeCoalescesConsecutiveGetsIntoMultiGet) {
  KvsBatch batch;
  batch.add_get("a").add_get("b").add_get("c");
  const BatchWire wire = encode_batch(batch);
  EXPECT_EQ(wire.request, "get a b c\r\n");
  ASSERT_EQ(wire.expects.size(), 1u);
  EXPECT_EQ(wire.expects[0].kind, BatchWire::Expect::Kind::kValues);
  EXPECT_EQ(wire.expects[0].op_indices, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(KvsBatch, EncodeDoesNotCoalesceAcrossMutations) {
  // get a / set a / get a: merging the two gets would let the first read
  // observe the in-between mutation.
  KvsBatch batch;
  batch.add_get("a").add_set("a", "v2", 0, 0).add_get("a");
  const BatchWire wire = encode_batch(batch);
  EXPECT_EQ(wire.request, "get a\r\nset a 0 0 2\r\nv2\r\nget a\r\n");
  ASSERT_EQ(wire.expects.size(), 3u);
}

TEST(KvsBatch, EncodeMixedBatchIsOneBufferWithNoreply) {
  KvsBatch batch;
  batch.add_set("x", "pay", 5, 123, /*exptime_s=*/60, /*noreply=*/true)
      .add_del("y", /*noreply=*/true)
      .add_iqget("z");
  const BatchWire wire = encode_batch(batch);
  EXPECT_EQ(wire.request,
            "set x 5 60 3 123 noreply\r\npay\r\n"
            "delete y noreply\r\n"
            "iqget z\r\n");
  // Only the iqget solicits a reply.
  ASSERT_EQ(wire.expects.size(), 1u);
  EXPECT_EQ(wire.expects[0].kind, BatchWire::Expect::Kind::kValues);
  EXPECT_EQ(wire.expects[0].op_indices, (std::vector<std::size_t>{2}));
}

// ---- server-side incremental decoding ---------------------------------------

TEST(CommandDecoder, DrainsAPipelinedBurst) {
  CommandDecoder decoder;
  decoder.feed("set a 0 0 1\r\nA\r\nget a b\r\ndelete a noreply\r\n");
  DecodedCommand dc;
  ASSERT_EQ(decoder.next(dc), CommandDecoder::Status::kCommand);
  EXPECT_EQ(dc.cmd.type, CommandType::kSet);
  EXPECT_EQ(dc.payload, "A");
  ASSERT_EQ(decoder.next(dc), CommandDecoder::Status::kCommand);
  EXPECT_EQ(dc.cmd.type, CommandType::kGet);
  ASSERT_EQ(dc.cmd.extra_keys.size(), 1u);
  ASSERT_EQ(decoder.next(dc), CommandDecoder::Status::kCommand);
  EXPECT_EQ(dc.cmd.type, CommandType::kDelete);
  EXPECT_TRUE(dc.cmd.noreply);
  EXPECT_EQ(decoder.next(dc), CommandDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(CommandDecoder, ReassemblesSplitPayload) {
  CommandDecoder decoder;
  DecodedCommand dc;
  decoder.feed("set k 0 0 6\r\na\r");
  EXPECT_EQ(decoder.next(dc), CommandDecoder::Status::kNeedMore);
  decoder.feed("\nb\rc");  // 6-byte payload containing CRLF
  EXPECT_EQ(decoder.next(dc), CommandDecoder::Status::kNeedMore);
  decoder.feed("\r\n");
  ASSERT_EQ(decoder.next(dc), CommandDecoder::Status::kCommand);
  EXPECT_EQ(dc.payload, std::string("a\r\nb\rc", 6));
}

TEST(CommandDecoder, ProtocolErrorConsumesOneLineAndRecovers) {
  CommandDecoder decoder;
  decoder.feed("frobnicate\r\nversion\r\n");
  DecodedCommand dc;
  EXPECT_EQ(decoder.next(dc), CommandDecoder::Status::kProtocolError);
  ASSERT_EQ(decoder.next(dc), CommandDecoder::Status::kCommand);
  EXPECT_EQ(dc.cmd.type, CommandType::kVersion);
}

TEST(CommandDecoder, OversizedStorageHeaderIsFatal) {
  // A numeric declared length past the cap means a (potentially huge)
  // payload follows that could never be re-framed — the stream must die
  // instead of misreading the payload as commands.
  DecodedCommand dc;
  CommandDecoder overflow;
  overflow.feed("set k 0 0 4294967296\r\nwould-be-payload\r\n");
  EXPECT_EQ(overflow.next(dc), CommandDecoder::Status::kFatalError);

  CommandDecoder oversized;
  oversized.feed("set k 0 0 " + std::to_string(kMaxValueBytes + 1) + "\r\n");
  EXPECT_EQ(oversized.next(dc), CommandDecoder::Status::kFatalError);

  // Non-numeric garbage in the size slot carries no payload threat, and a
  // malformed non-storage line never did: both stay recoverable.
  CommandDecoder garbage;
  garbage.feed("set k 0 0 zebra\r\nversion\r\n");
  EXPECT_EQ(garbage.next(dc), CommandDecoder::Status::kProtocolError);
  EXPECT_EQ(garbage.next(dc), CommandDecoder::Status::kCommand);

  CommandDecoder bad_get;
  bad_get.feed("get\r\nversion\r\n");
  EXPECT_EQ(bad_get.next(dc), CommandDecoder::Status::kProtocolError);
  EXPECT_EQ(bad_get.next(dc), CommandDecoder::Status::kCommand);
}

TEST(CommandDecoder, RejectedStorageLineSwallowsItsPayload) {
  // "10 10" is a malformed cost tail, but the declared size (5) is
  // credible: the decoder must discard the 5-byte payload instead of
  // misreading "hello" as a command, memcached's "bad data chunk" rule.
  CommandDecoder decoder;
  DecodedCommand dc;
  decoder.feed("set k 0 0 5 10 10\r\nhel");
  EXPECT_EQ(decoder.next(dc), CommandDecoder::Status::kProtocolError);
  EXPECT_EQ(decoder.next(dc), CommandDecoder::Status::kNeedMore);
  decoder.feed("lo\r\nversion\r\n");  // rest of payload, then a real command
  ASSERT_EQ(decoder.next(dc), CommandDecoder::Status::kCommand);
  EXPECT_EQ(dc.cmd.type, CommandType::kVersion);
}

TEST(CommandDecoder, EndlessLineWithoutCrlfIsFatal) {
  CommandDecoder decoder;
  DecodedCommand dc;
  decoder.feed(std::string(kMaxCommandLineBytes, 'x'));
  EXPECT_EQ(decoder.next(dc), CommandDecoder::Status::kNeedMore);
  decoder.feed("xxxx");  // past the cap, still no CRLF
  EXPECT_EQ(decoder.next(dc), CommandDecoder::Status::kFatalError);
}

// ---- TCP transport ----------------------------------------------------------

class BatchTcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig config;
    config.workers = 2;
    config.store = small_store();
    server_ = std::make_unique<KvsServer>(config, lru_factory(), clock_);
    server_->start();
  }
  void TearDown() override { server_->stop(); }

  util::SteadyClock clock_;
  std::unique_ptr<KvsServer> server_;
};

TEST_F(BatchTcpTest, MultiGetBatchIssuesOneWrite) {
  KvsClient client("127.0.0.1", server_->port());
  std::vector<std::string> keys, values;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("k" + std::to_string(i));
    values.push_back("v" + std::to_string(i));
  }
  for (std::size_t i = 0; i < 8; i += 2) {  // seed the even keys
    ASSERT_TRUE(client.set(keys[i], values[i],
                           static_cast<std::uint32_t>(i), 0));
  }

  KvsBatch batch;
  for (const std::string& key : keys) batch.add_get(key);
  const std::uint64_t writes_before = client.write_count();
  const KvsBatchResult r = client.execute(batch);
  EXPECT_EQ(client.write_count() - writes_before, 1u)
      << "a batched multi-get must cost exactly one write()";

  for (std::size_t i = 0; i < 8; ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(r[i].ok);
      EXPECT_EQ(r[i].value, values[i]);
      EXPECT_EQ(r[i].flags, static_cast<std::uint32_t>(i));
    } else {
      EXPECT_FALSE(r[i].ok);
    }
  }
}

TEST_F(BatchTcpTest, MixedBatchIsOneWriteIncludingNoreplyMutations) {
  KvsClient client("127.0.0.1", server_->port());
  KvsBatch batch;
  batch.add_set("a", "alpha", 0, 0, 0, /*noreply=*/true)
      .add_set("b", "beta", 0, 0, 0, /*noreply=*/true)
      .add_get("a")
      .add_get("b")
      .add_del("a", /*noreply=*/true)
      .add_get("a");
  const std::uint64_t writes_before = client.write_count();
  const KvsBatchResult r = client.execute(batch);
  EXPECT_EQ(client.write_count() - writes_before, 1u);

  EXPECT_TRUE(r[0].ok);
  EXPECT_FALSE(r[0].acked);  // noreply: assumed, not confirmed
  EXPECT_TRUE(r[1].ok);
  EXPECT_FALSE(r[1].acked);
  EXPECT_TRUE(r[2].ok);      // ops executed in order: the sets landed first
  EXPECT_EQ(r[2].value, "alpha");
  EXPECT_TRUE(r[3].ok);
  EXPECT_EQ(r[3].value, "beta");
  EXPECT_FALSE(r[5].ok) << "noreply delete must have executed before";
}

TEST_F(BatchTcpTest, DuplicateKeysInOneMultiGet) {
  KvsClient client("127.0.0.1", server_->port());
  ASSERT_TRUE(client.set("dup", "d", 0, 0));
  KvsBatch batch;
  batch.add_get("dup").add_get("gone").add_get("dup");
  const KvsBatchResult r = client.execute(batch);
  EXPECT_TRUE(r[0].ok);
  EXPECT_EQ(r[0].value, "d");
  EXPECT_FALSE(r[1].ok);
  EXPECT_TRUE(r[2].ok);
  EXPECT_EQ(r[2].value, "d");
}

TEST_F(BatchTcpTest, TcpMatchesInprocSemantics) {
  KvsClient tcp("127.0.0.1", server_->port());
  util::SteadyClock clock;
  KvsStore store(small_store(), lru_factory(), clock);
  InprocClient inproc(store);

  KvsBatch batch;
  batch.add_set("x", "1", 0, 5)
      .add_iqget("y")
      .add_iqset("y", "2", 0)
      .add_get("x")
      .add_get("y")
      .add_del("x")
      .add_get("x");
  const KvsBatchResult a = tcp.execute(batch);
  const KvsBatchResult b = inproc.execute(batch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ok, b[i].ok) << "op " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "op " << i;
    EXPECT_EQ(a[i].flags, b[i].flags) << "op " << i;
  }
}

TEST_F(BatchTcpTest, LargeBatchRoundTrip) {
  KvsClient client("127.0.0.1", server_->port());
  constexpr int kOps = 200;
  KvsBatch sets;
  for (int i = 0; i < kOps; ++i) {
    sets.add_set("big" + std::to_string(i), std::string(64, 'x'), 0, 0, 0,
                 /*noreply=*/true);
  }
  const std::uint64_t writes_before = client.write_count();
  (void)client.execute(sets);
  EXPECT_EQ(client.write_count() - writes_before, 1u);

  KvsBatch gets;
  for (int i = 0; i < kOps; ++i) gets.add_get("big" + std::to_string(i));
  const KvsBatchResult r = client.execute(gets);
  EXPECT_EQ(r.ok_count(), static_cast<std::size_t>(kOps));
}

TEST(KvsBatch, EncodeSplitsMultiGetAtTheCommandLineCap) {
  // 400 gets of 250-byte keys (~100 KB of line) must split into several
  // multi-get lines, each under kMaxCommandLineBytes — the server's
  // decoder fatally rejects longer lines.
  KvsBatch batch;
  std::vector<std::string> keys;
  for (int i = 0; i < 400; ++i) {
    std::string key = std::to_string(i);
    key.append(250 - key.size(), 'k');
    batch.add_get(key);
    keys.push_back(std::move(key));
  }
  const BatchWire wire = encode_batch(batch);
  EXPECT_GE(wire.expects.size(), 2u) << "the run must have been split";
  std::size_t covered = 0;
  std::size_t line_start = 0;
  for (const BatchWire::Expect& expect : wire.expects) {
    covered += expect.op_indices.size();
    const std::size_t eol = wire.request.find("\r\n", line_start);
    ASSERT_NE(eol, std::string::npos);
    EXPECT_LE(eol - line_start, kMaxCommandLineBytes);
    line_start = eol + 2;
  }
  EXPECT_EQ(covered, batch.size()) << "every op still has a reply slot";
}

TEST(KvsBatch, EncodeRejectsInvalidKeys) {
  // A key the server's parser rejects would elicit a wire-side ERROR that a
  // noreply op has no reply slot for, desyncing the whole stream — so the
  // encoder refuses locally.
  KvsBatch spaced;
  spaced.add_del("bad key", /*noreply=*/true);
  EXPECT_THROW((void)encode_batch(spaced), std::invalid_argument);

  KvsBatch oversized_key;
  oversized_key.add_get(std::string(251, 'k'));
  EXPECT_THROW((void)encode_batch(oversized_key), std::invalid_argument);

  KvsBatch control_chars;
  control_chars.add_set("evil\r\nkey", "v", 0, 0);
  EXPECT_THROW((void)encode_batch(control_chars), std::invalid_argument);
}

TEST_F(BatchTcpTest, OversizedValueRejectedClientSideBeforeAnyWrite) {
  // The server drops any connection declaring > kMaxValueBytes, so the
  // encoder must refuse locally — and the connection must stay usable.
  KvsClient client("127.0.0.1", server_->port());
  KvsBatch batch;
  batch.add_set("too-big", std::string(kMaxValueBytes + 1, 'x'), 0, 0);
  const std::uint64_t writes_before = client.write_count();
  EXPECT_THROW((void)client.execute(batch), std::length_error);
  EXPECT_EQ(client.write_count(), writes_before) << "nothing hit the wire";
  EXPECT_TRUE(client.set("still-fine", "v", 0, 0));
}

TEST_F(BatchTcpTest, HugeRepliedBatchDoesNotDeadlock) {
  // Every set solicits a STORED reply: the request exceeds the kernel send
  // buffer while replies stream back, so the client's send path must drain
  // replies while writing or both blocking writers wedge.
  KvsClient client("127.0.0.1", server_->port());
  constexpr int kOps = 20'000;
  KvsBatch batch;
  batch.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    batch.add_set("h" + std::to_string(i % 500), std::string(32, 'h'), 0, 0);
  }
  const KvsBatchResult r = client.execute(batch);
  EXPECT_EQ(r.ok_count(), static_cast<std::size_t>(kOps));
  for (const KvsOpResult& result : r.results) EXPECT_TRUE(result.acked);
}

TEST_F(BatchTcpTest, SplitMultiGetRoundTripStillOneWrite) {
  // Long keys force the encoder to split the get run into several wire
  // lines; the whole batch is still one buffer — and one write().
  KvsClient client("127.0.0.1", server_->port());
  std::vector<std::string> keys;
  for (int i = 0; i < 400; ++i) {
    std::string key = std::to_string(i);
    key.append(250 - key.size(), 'k');
    keys.push_back(std::move(key));
  }
  for (std::size_t i = 0; i < keys.size(); i += 50) {
    ASSERT_TRUE(client.set(keys[i], "hit" + std::to_string(i), 0, 0));
  }
  KvsBatch batch;
  for (const std::string& key : keys) batch.add_get(key);
  const std::uint64_t writes_before = client.write_count();
  const KvsBatchResult r = client.execute(batch);
  EXPECT_EQ(client.write_count() - writes_before, 1u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 50 == 0) {
      EXPECT_TRUE(r[i].ok);
      EXPECT_EQ(r[i].value, "hit" + std::to_string(i));
    } else {
      EXPECT_FALSE(r[i].ok);
    }
  }
}

TEST_F(BatchTcpTest, WorkerPoolReportedInStats) {
  KvsClient client("127.0.0.1", server_->port());
  const auto stats = client.stats();
  EXPECT_EQ(stats.at("workers"), "2");
  EXPECT_EQ(stats.at("store_shards"), "2");
  EXPECT_EQ(stats.at("policy"), "lru");
}

}  // namespace
}  // namespace camp::kvs
