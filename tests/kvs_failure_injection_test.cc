// Failure-injection suite for the KVS server: hostile and unlucky clients.
// Everything here must leave the server serving correct responses to a
// well-behaved client afterwards — the invariant is "no request sequence
// takes the store down or corrupts another connection's view".
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "kvs/server.h"
#include "policy/lru.h"

namespace camp::kvs {
namespace {

class ChaosSocket {
 public:
  explicit ChaosSocket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~ChaosSocket() { close(); }
  ChaosSocket(const ChaosSocket&) = delete;
  ChaosSocket& operator=(const ChaosSocket&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  void send_raw(const std::string& data) {
    (void)::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
  }

  std::string recv_until(const std::string& marker) {
    std::string out;
    char chunk[4096];
    while (out.find(marker) == std::string::npos) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig config;
    config.store.shards = 2;
    config.store.engine.slab.memory_limit_bytes = 4u << 20;
    server_ = std::make_unique<KvsServer>(
        config,
        [](std::uint64_t cap) {
          return std::make_unique<policy::LruCache>(cap);
        },
        clock_);
    server_->start();
  }
  void TearDown() override { server_->stop(); }

  /// A healthy client must get clean answers after whatever chaos ran.
  void expect_server_healthy() {
    ChaosSocket probe(server_->port());
    ASSERT_TRUE(probe.connected());
    probe.send_raw("set health 0 0 2\r\nok\r\n");
    EXPECT_NE(probe.recv_until("\r\n").find("STORED"), std::string::npos);
    probe.send_raw("get health\r\n");
    const std::string reply = probe.recv_until("END\r\n");
    EXPECT_NE(reply.find("VALUE health 0 2"), std::string::npos);
    EXPECT_NE(reply.find("ok"), std::string::npos);
  }

  util::SteadyClock clock_;
  std::unique_ptr<KvsServer> server_;
};

TEST_F(FailureInjectionTest, ReconnectStorm) {
  // 200 connections that connect, maybe half-send something, and vanish.
  for (int i = 0; i < 200; ++i) {
    ChaosSocket sock(server_->port());
    ASSERT_TRUE(sock.connected()) << "connection " << i << " refused";
    switch (i % 4) {
      case 0: break;                           // connect and leave
      case 1: sock.send_raw("get"); break;     // half a command line
      case 2: sock.send_raw("set k 0 0 10\r\nabc"); break;  // partial payload
      default: sock.send_raw("version\r\n"); break;  // fire and forget
    }
  }
  expect_server_healthy();
}

TEST_F(FailureInjectionTest, InterleavedPartialPayloadsOnTwoSockets) {
  // Two clients dribble different sets concurrently; per-connection framing
  // must never leak bytes between them.
  ChaosSocket a(server_->port());
  ChaosSocket b(server_->port());
  a.send_raw("set alpha 0 0 6\r\naaa");
  b.send_raw("set beta 0 0 4\r\nbb");
  a.send_raw("aaa\r\n");
  b.send_raw("bb\r\n");
  EXPECT_NE(a.recv_until("\r\n").find("STORED"), std::string::npos);
  EXPECT_NE(b.recv_until("\r\n").find("STORED"), std::string::npos);

  ChaosSocket reader(server_->port());
  reader.send_raw("get alpha beta\r\n");
  const std::string reply = reader.recv_until("END\r\n");
  EXPECT_NE(reply.find("VALUE alpha 0 6"), std::string::npos);
  EXPECT_NE(reply.find("aaaaaa"), std::string::npos);
  EXPECT_NE(reply.find("VALUE beta 0 4"), std::string::npos);
  EXPECT_NE(reply.find("bbbb"), std::string::npos);
}

TEST_F(FailureInjectionTest, ZeroLengthValueRoundTrips) {
  ChaosSocket sock(server_->port());
  sock.send_raw("set empty 0 0 0\r\n\r\n");
  EXPECT_NE(sock.recv_until("\r\n").find("STORED"), std::string::npos);
  sock.send_raw("get empty\r\n");
  const std::string reply = sock.recv_until("END\r\n");
  EXPECT_NE(reply.find("VALUE empty 0 0"), std::string::npos);
}

TEST_F(FailureInjectionTest, VeryLongKeyHandledGracefully) {
  // memcached caps keys at 250 bytes; whatever the server's policy, the
  // connection must survive and honest requests must still work.
  ChaosSocket sock(server_->port());
  const std::string long_key(4096, 'k');
  // The rejected set leaves its would-be payload line behind, which is
  // answered with a second ERROR; read until the version reply regardless.
  sock.send_raw("set " + long_key + " 0 0 2\r\nhi\r\nversion\r\n");
  const std::string reply = sock.recv_until("VERSION");
  EXPECT_NE(reply.find("ERROR"), std::string::npos);
  EXPECT_NE(reply.find("VERSION"), std::string::npos);
  expect_server_healthy();
}

TEST_F(FailureInjectionTest, NegativeAndGarbageNumbersRejected) {
  ChaosSocket sock(server_->port());
  for (const char* line :
       {"set k 0 0 -5\r\n", "set k 0 0 zebra\r\n", "set k 0 zebra 5\r\n",
        "set k zebra 0 5\r\n", "set k 0 0\r\n", "set\r\n"}) {
    sock.send_raw(line);
    const std::string reply = sock.recv_until("\r\n");
    EXPECT_TRUE(reply.find("ERROR") != std::string::npos ||
                reply.find("CLIENT_ERROR") != std::string::npos)
        << "line '" << line << "' got: " << reply;
  }
  expect_server_healthy();
}

TEST_F(FailureInjectionTest, NoreplyFloodThenQuit) {
  ChaosSocket sock(server_->port());
  std::string burst;
  for (int i = 0; i < 500; ++i) {
    burst += "set flood" + std::to_string(i) + " 0 0 3 noreply\r\nxyz\r\n";
  }
  sock.send_raw(burst);
  sock.send_raw("get flood499\r\n");
  const std::string reply = sock.recv_until("END\r\n");
  EXPECT_NE(reply.find("VALUE flood499 0 3"), std::string::npos)
      << "noreply pipeline lost writes";
  expect_server_healthy();
}

TEST_F(FailureInjectionTest, DisconnectMidMultiGet) {
  {
    ChaosSocket sock(server_->port());
    sock.send_raw("set mg 0 0 2\r\nhi\r\n");
    (void)sock.recv_until("\r\n");
    std::string huge_get = "get";
    for (int i = 0; i < 2000; ++i) huge_get += " mg";
    huge_get += "\r\n";
    sock.send_raw(huge_get);
    // Read the first reply chunk, then leave the scope: the socket closes
    // with the rest of the response undrained, while the server is
    // mid-response.
    EXPECT_NE(sock.recv_until("VALUE").find("VALUE mg"), std::string::npos);
  }
  expect_server_healthy();
}

TEST_F(FailureInjectionTest, ParallelChaosAndHonestTraffic) {
  // Honest writers race 4 chaos threads that open/kill connections with
  // malformed fragments. Every honest write must be readable afterwards.
  std::atomic<bool> stop{false};
  std::vector<std::thread> chaos;
  for (int t = 0; t < 4; ++t) {
    chaos.emplace_back([this, &stop, t] {
      int i = 0;
      while (!stop.load()) {
        ChaosSocket sock(server_->port());
        if (!sock.connected()) continue;
        switch ((t + i++) % 3) {
          case 0: sock.send_raw("set x 0 0 100\r\nhalf"); break;
          case 1: sock.send_raw("\r\n\r\n\r\n"); break;
          default: sock.send_raw("get \r\n"); break;
        }
      }
    });
  }
  {
    ChaosSocket honest(server_->port());
    ASSERT_TRUE(honest.connected());
    for (int i = 0; i < 100; ++i) {
      const std::string key = "honest" + std::to_string(i);
      honest.send_raw("set " + key + " 0 0 5\r\nvalue\r\n");
      ASSERT_NE(honest.recv_until("\r\n").find("STORED"), std::string::npos)
          << "write " << i << " failed under chaos";
    }
    for (int i = 0; i < 100; ++i) {
      const std::string key = "honest" + std::to_string(i);
      honest.send_raw("get " + key + "\r\n");
      const std::string reply = honest.recv_until("END\r\n");
      ASSERT_NE(reply.find("VALUE " + key + " 0 5"), std::string::npos)
          << "read " << i << " failed under chaos";
    }
  }
  stop.store(true);
  for (auto& t : chaos) t.join();
  expect_server_healthy();
}

}  // namespace
}  // namespace camp::kvs
