// KvsClient reply hardening: a mixed-version or byzantine peer whose VALUE
// lines carry oversized, negative or garbage numeric tokens must fail the
// parse loudly — the old bare std::stoul + static_cast silently truncated
// "4294967296" to 0 and accepted "-1" as 2^64-1. Each test stands up a
// canned one-connection fake server that speaks whatever bytes the test
// scripts, then drives a real KvsClient against it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kvs/client.h"
#include "kvs/protocol.h"

namespace camp::kvs {
namespace {

/// Accepts ONE connection, reads (and discards) one request chunk, writes
/// the scripted reply — in one send, or in `segment`-byte sends with a
/// short pause between them — then holds the connection open until
/// destruction.
class CannedPeer {
 public:
  explicit CannedPeer(std::string reply, std::size_t segment = 0)
      : reply_(std::move(reply)), segment_(segment) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    server_ = std::thread([this] {
      conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
      if (conn_fd_ < 0) return;
      char buf[4096];
      (void)!::recv(conn_fd_, buf, sizeof(buf), 0);  // the request; ignored
      if (segment_ == 0) {
        (void)!::send(conn_fd_, reply_.data(), reply_.size(), MSG_NOSIGNAL);
      } else {
        const int one = 1;
        ::setsockopt(conn_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        for (std::size_t at = 0; at < reply_.size(); at += segment_) {
          (void)!::send(conn_fd_, reply_.data() + at,
                        std::min(segment_, reply_.size() - at), MSG_NOSIGNAL);
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      }
      // Signal end-of-stream so a parser waiting for more bytes fails fast
      // instead of blocking the test.
      ::shutdown(conn_fd_, SHUT_WR);
    });
  }

  ~CannedPeer() {
    if (server_.joinable()) server_.join();
    if (conn_fd_ >= 0) ::close(conn_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  std::string reply_;
  std::size_t segment_ = 0;
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread server_;
};

TEST(ClientReplyParse, OverflowingFlagsTokenThrows) {
  // 2^32 used to static_cast-truncate to flags 0 and be accepted.
  CannedPeer peer("VALUE k 4294967296 2\r\nvv\r\nEND\r\n");
  KvsClient client("127.0.0.1", peer.port());
  EXPECT_THROW((void)client.get("k"), std::runtime_error);
}

TEST(ClientReplyParse, NegativeBytesTokenThrows) {
  // std::stoul("-1") wraps to 2^64-1; read_bytes would then wait forever
  // for 16 exabytes (here: fail on the closed stream).
  CannedPeer peer("VALUE k 0 -1\r\nvv\r\nEND\r\n");
  KvsClient client("127.0.0.1", peer.port());
  EXPECT_THROW((void)client.get("k"), std::runtime_error);
}

TEST(ClientReplyParse, BytesPastProtocolCapThrows) {
  // All-digit and in-range for uint64, but past kMaxValueBytes: a lying
  // peer must not make the client allocate gigabytes.
  CannedPeer peer("VALUE k 0 999999999\r\nvv\r\nEND\r\n");
  KvsClient client("127.0.0.1", peer.port());
  EXPECT_THROW((void)client.get("k"), std::runtime_error);
}

TEST(ClientReplyParse, GarbageNumericTokenThrows) {
  // stoul("12x") silently parsed the "12" prefix.
  CannedPeer peer("VALUE k 12x 2\r\nvv\r\nEND\r\n");
  KvsClient client("127.0.0.1", peer.port());
  EXPECT_THROW((void)client.get("k"), std::runtime_error);
}

TEST(ClientReplyParse, TruncatedValueLineThrows) {
  CannedPeer peer("VALUE k\r\nEND\r\n");
  KvsClient client("127.0.0.1", peer.port());
  EXPECT_THROW((void)client.get("k"), std::runtime_error);
}

TEST(ClientReplyParse, PeerGetOverflowingCostThrows) {
  // peer_get's 5-token VALUE line: cost rides in the 4th slot and used to
  // truncate the same way.
  CannedPeer peer("VALUE k 0 2 4294967296 0\r\nvv\r\nEND\r\n");
  KvsClient client("127.0.0.1", peer.port());
  EXPECT_THROW((void)client.peer_get("k"), std::runtime_error);
}

TEST(ClientReplyParse, PeerGetNegativeTtlThrows) {
  CannedPeer peer("VALUE k 0 2 1 -5\r\nvv\r\nEND\r\n");
  KvsClient client("127.0.0.1", peer.port());
  EXPECT_THROW((void)client.peer_get("k"), std::runtime_error);
}

TEST(ClientReplyParse, PeerGetMissingTokensThrows) {
  // A plain-get-shaped VALUE line (3 tokens) answering a pget.
  CannedPeer peer("VALUE k 0 2\r\nvv\r\nEND\r\n");
  KvsClient client("127.0.0.1", peer.port());
  EXPECT_THROW((void)client.peer_get("k"), std::runtime_error);
}

TEST(ClientReplyParse, WellFormedRepliesStillParse) {
  // The strict parser must not reject legal replies.
  CannedPeer peer("VALUE k 7 2\r\nvv\r\nEND\r\n");
  KvsClient client("127.0.0.1", peer.port());
  const GetResult r = client.get("k");
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.flags, 7u);
  EXPECT_EQ(r.value, "vv");
}

TEST(ClientReplyParse, MultiValueReplyInOneByteSegments) {
  // A 32-key multi-get whose reply trickles in one byte per segment, so
  // every line and payload boundary straddles a buffer compaction. Every
  // fourth key misses; payloads carry CRLF and "END" so only the declared
  // byte count can frame them. A second reply queued behind the first must
  // survive the compactions intact.
  KvsBatch batch;
  std::string reply;
  std::vector<std::string> expected(32);
  for (int i = 0; i < 32; ++i) {
    const std::string key = "key" + std::to_string(i);
    batch.add_get(key);
    if (i % 4 == 3) continue;
    expected[i] = std::string(static_cast<std::size_t>(i), 'x') +
                  "\r\nEND\r\n" + std::to_string(i);
    reply += "VALUE " + key + " " + std::to_string(i) + " " +
             std::to_string(expected[i].size()) + "\r\n" + expected[i] +
             "\r\n";
  }
  reply += "END\r\n";
  reply += "VALUE tail 9 4\r\nlast\r\nEND\r\n";
  CannedPeer peer(reply, /*segment=*/1);
  KvsClient client("127.0.0.1", peer.port());
  const KvsBatchResult r = client.execute(batch);
  ASSERT_EQ(r.results.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    const KvsOpResult& op = r.results[i];
    if (i % 4 == 3) {
      EXPECT_FALSE(op.ok) << i;
      continue;
    }
    ASSERT_TRUE(op.ok) << i;
    EXPECT_EQ(op.flags, static_cast<std::uint32_t>(i));
    EXPECT_EQ(op.value, expected[i]);
  }
  const GetResult tail = client.get("tail");
  EXPECT_TRUE(tail.hit);
  EXPECT_EQ(tail.flags, 9u);
  EXPECT_EQ(tail.value, "last");
}

TEST(ClientReplyParse, WellFormedPeerGetStillParses) {
  CannedPeer peer("VALUE k 7 2 42 60\r\nvv\r\nEND\r\n");
  KvsClient client("127.0.0.1", peer.port());
  const StoredGetResult r = client.peer_get("k");
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.flags, 7u);
  EXPECT_EQ(r.cost, 42u);
  EXPECT_EQ(r.remaining_ttl_s, 60u);
  EXPECT_EQ(r.stored, "vv");
  EXPECT_EQ(r.codec, Codec::kIdentity);
  EXPECT_EQ(r.raw_len, 2u);
}

TEST(ClientReplyParse, CompressedPeerGetParsesTrailingTokens) {
  // The 7-token form: codec 2 (RLE) payload of 3 stored bytes decoding to
  // 10 raw bytes. The client re-stores the payload verbatim; it does NOT
  // decode here, so the bytes only need to parse, not decompress.
  CannedPeer peer("VALUE k 7 3 42 60 2 10\r\nxyz\r\nEND\r\n");
  KvsClient client("127.0.0.1", peer.port());
  const StoredGetResult r = client.peer_get("k");
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.stored, "xyz");
  EXPECT_EQ(r.codec, Codec::kRle);
  EXPECT_EQ(r.raw_len, 10u);
}

TEST(ClientReplyParse, PeerGetRejectsBadCodecTokens) {
  // Unknown codec tag.
  {
    CannedPeer peer("VALUE k 7 2 42 60 9 10\r\nvv\r\nEND\r\n");
    KvsClient client("127.0.0.1", peer.port());
    EXPECT_THROW((void)client.peer_get("k"), std::runtime_error);
  }
  // Codec 0 must not appear in the 7-token form (identity never carries
  // the extension on the wire).
  {
    CannedPeer peer("VALUE k 7 2 42 60 0 2\r\nvv\r\nEND\r\n");
    KvsClient client("127.0.0.1", peer.port());
    EXPECT_THROW((void)client.peer_get("k"), std::runtime_error);
  }
  // raw_len past the protocol cap.
  {
    CannedPeer peer("VALUE k 7 2 42 60 2 999999999\r\nvv\r\nEND\r\n");
    KvsClient client("127.0.0.1", peer.port());
    EXPECT_THROW((void)client.peer_get("k"), std::runtime_error);
  }
  // Six tokens: codec without raw_len.
  {
    CannedPeer peer("VALUE k 7 2 42 60 2\r\nvv\r\nEND\r\n");
    KvsClient client("127.0.0.1", peer.port());
    EXPECT_THROW((void)client.peer_get("k"), std::runtime_error);
  }
}

TEST(ClientReplyParse, PeerOpsRejectInjectionKeys) {
  // The peer ops splice the key into the request line: a key carrying a
  // space or CRLF would inject commands into the peer stream. They must be
  // rejected client-side, before any bytes go out.
  CannedPeer peer("END\r\n");
  KvsClient client("127.0.0.1", peer.port());
  EXPECT_THROW((void)client.peer_get("k 0 0 5\r\npdel victim"),
               std::invalid_argument);
  EXPECT_THROW((void)client.peer_del("a b"), std::invalid_argument);
  EXPECT_THROW(
      (void)client.peer_set(std::string(300, 'k'), "v", 0, 1),
      std::invalid_argument);
  // A legal key still goes through (and parses the canned miss).
  EXPECT_FALSE(client.peer_get("legal-key").hit);
}

TEST(ClientReplyParse, ParseReplyTokenContract) {
  EXPECT_EQ(parse_reply_token("0", 10, "t"), 0u);
  EXPECT_EQ(parse_reply_token("10", 10, "t"), 10u);
  EXPECT_EQ(parse_reply_token("18446744073709551615",
                              ~std::uint64_t{0}, "t"),
            ~std::uint64_t{0});
  EXPECT_THROW((void)parse_reply_token("", 10, "t"), std::runtime_error);
  EXPECT_THROW((void)parse_reply_token("11", 10, "t"), std::runtime_error);
  EXPECT_THROW((void)parse_reply_token("-1", 10, "t"), std::runtime_error);
  EXPECT_THROW((void)parse_reply_token("+1", 10, "t"), std::runtime_error);
  EXPECT_THROW((void)parse_reply_token("1 ", 10, "t"), std::runtime_error);
  EXPECT_THROW((void)parse_reply_token("0x1", 10, "t"), std::runtime_error);
  // 21 digits: past uint64 even though all-digit.
  EXPECT_THROW((void)parse_reply_token("184467440737095516150",
                                       ~std::uint64_t{0}, "t"),
               std::runtime_error);
}

}  // namespace
}  // namespace camp::kvs
