// EventLoop / net_io unit tests plus the event-driven server's regression
// suite: the blocking-I/O bugs this layer replaced (EINTR treated as fatal,
// one stalled reader parking a whole worker) must stay fixed.
#include "kvs/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "kvs/client.h"
#include "kvs/net_io.h"
#include "kvs/server.h"
#include "policy/lru.h"

namespace camp::kvs {
namespace {

// ---- net_io: the EINTR/EAGAIN retry contract -------------------------------

TEST(NetIoTest, RetryEintrRetriesUntilSuccess) {
  int calls = 0;
  const ssize_t n = net::retry_eintr([&]() -> ssize_t {
    if (++calls < 3) {
      errno = EINTR;
      return -1;
    }
    return 42;
  });
  EXPECT_EQ(n, 42);
  EXPECT_EQ(calls, 3);
}

TEST(NetIoTest, RetryEintrPassesOtherErrorsThrough) {
  int calls = 0;
  errno = 0;
  const ssize_t n = net::retry_eintr([&]() -> ssize_t {
    ++calls;
    errno = ECONNRESET;
    return -1;
  });
  EXPECT_EQ(n, -1);
  EXPECT_EQ(errno, ECONNRESET);
  EXPECT_EQ(calls, 1);  // no retry on a real error
}

TEST(NetIoTest, RetryEintrReturnsZeroWithoutRetry) {
  int calls = 0;
  const ssize_t n = net::retry_eintr([&]() -> ssize_t {
    ++calls;
    return 0;  // EOF is a result, not an error
  });
  EXPECT_EQ(n, 0);
  EXPECT_EQ(calls, 1);
}

TEST(NetIoTest, ClassifyRecv) {
  EXPECT_EQ(net::classify_recv(17), net::IoStatus::kProgress);
  EXPECT_EQ(net::classify_recv(0), net::IoStatus::kClosed);
  errno = EAGAIN;
  EXPECT_EQ(net::classify_recv(-1), net::IoStatus::kWouldBlock);
  errno = ECONNRESET;
  EXPECT_EQ(net::classify_recv(-1), net::IoStatus::kError);
}

TEST(NetIoTest, ClassifySend) {
  EXPECT_EQ(net::classify_send(17), net::IoStatus::kProgress);
  errno = EWOULDBLOCK;
  EXPECT_EQ(net::classify_send(-1), net::IoStatus::kWouldBlock);
  errno = EPIPE;
  EXPECT_EQ(net::classify_send(-1), net::IoStatus::kError);
  EXPECT_EQ(net::classify_send(0), net::IoStatus::kError);
}

// ---- EventLoop -------------------------------------------------------------

class EventLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }

  EventLoop loop_;
  std::vector<EventLoop::Event> events_;
  int fds_[2] = {-1, -1};
};

TEST_F(EventLoopTest, ReportsReadableOnlyWhenDataArrives) {
  int tag = 0;
  loop_.add(fds_[0], /*want_read=*/true, /*want_write=*/false, &tag);
  loop_.wait(events_, 0);
  EXPECT_TRUE(events_.empty());  // nothing to read yet

  ASSERT_EQ(::write(fds_[1], "x", 1), 1);
  loop_.wait(events_, 1000);
  ASSERT_EQ(events_.size(), 1u);
  EXPECT_EQ(events_[0].tag, &tag);
  EXPECT_TRUE(events_[0].readable);
  EXPECT_FALSE(events_[0].writable);
}

TEST_F(EventLoopTest, ModifySwitchesInterestToWritable) {
  int tag = 0;
  loop_.add(fds_[0], /*want_read=*/true, /*want_write=*/false, &tag);
  loop_.modify(fds_[0], /*want_read=*/false, /*want_write=*/true, &tag);
  loop_.wait(events_, 1000);
  ASSERT_EQ(events_.size(), 1u);  // an idle socket is immediately writable
  EXPECT_TRUE(events_[0].writable);
  EXPECT_FALSE(events_[0].readable);
}

TEST_F(EventLoopTest, RemoveStopsReporting) {
  int tag = 0;
  loop_.add(fds_[0], /*want_read=*/true, /*want_write=*/false, &tag);
  ASSERT_EQ(::write(fds_[1], "x", 1), 1);
  loop_.remove(fds_[0]);
  loop_.wait(events_, 0);
  EXPECT_TRUE(events_.empty());
}

TEST_F(EventLoopTest, ReportsHangupWhenPeerCloses) {
  int tag = 0;
  loop_.add(fds_[0], /*want_read=*/true, /*want_write=*/false, &tag);
  ::close(fds_[1]);
  fds_[1] = -1;
  loop_.wait(events_, 1000);
  ASSERT_EQ(events_.size(), 1u);
  EXPECT_TRUE(events_[0].hangup || events_[0].readable);
}

TEST_F(EventLoopTest, TimeoutReturnsEmpty) {
  const auto start = std::chrono::steady_clock::now();
  loop_.wait(events_, 50);
  EXPECT_TRUE(events_.empty());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(40));
}

TEST_F(EventLoopTest, WakeFromAnotherThreadUnblocksWait) {
  std::thread waker([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    loop_.wake();
  });
  const auto start = std::chrono::steady_clock::now();
  loop_.wait(events_, -1);  // would block forever without the wake
  EXPECT_TRUE(events_.empty());  // wakeups produce no Event
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
  waker.join();
}

TEST_F(EventLoopTest, CoalescedWakesDrainInOneWait) {
  for (int i = 0; i < 5; ++i) loop_.wake();
  loop_.wait(events_, 1000);
  EXPECT_TRUE(events_.empty());
  loop_.wait(events_, 0);  // counter was drained: no residual readiness
  EXPECT_TRUE(events_.empty());
}

TEST(EventLoopBackendTest, ReportsCompiledBackend) {
  EXPECT_STREQ(EventLoop::backend(), "epoll");
}

// ---- server regressions ----------------------------------------------------

ServerConfig server_config() {
  ServerConfig c;
  c.port = 0;  // ephemeral
  c.store.shards = 2;
  c.store.engine.slab.memory_limit_bytes = 4u << 20;
  c.store.engine.slab.slab_size_bytes = 1u << 20;
  return c;
}

PolicyFactory lru_factory() {
  return [](std::uint64_t cap) {
    return std::make_unique<policy::LruCache>(cap);
  };
}

int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

/// THE tentpole regression: with a single worker, one connection that
/// floods pipelined gets for a large value and never reads a byte of the
/// replies must not stall the worker — its other connections keep being
/// served. On the old blocking design the worker parked inside send_all on
/// the stalled socket and every sibling connection froze; this test then
/// timed out.
TEST(SlowReaderTest, SlowReaderDoesNotBlockPeers) {
  ServerConfig config = server_config();
  config.workers = 1;  // every connection below shares ONE worker
  const util::SteadyClock clock;
  KvsServer server(config, lru_factory(), clock);
  server.start();

  {
    KvsClient seeder("127.0.0.1", server.port());
    ASSERT_TRUE(seeder.set("big", std::string(200'000, 'x'), 0, 0));
  }

  // Flood pipelined "get big" requests without ever reading the replies,
  // until either our send buffer jams or we have queued far more reply
  // data than the server's write watermark can absorb.
  const int flooder = connect_raw(server.port());
  std::string burst;
  for (int i = 0; i < 64; ++i) burst += "get big\r\n";
  std::size_t sent = 0;
  while (sent < (4u << 20)) {
    const ssize_t n = ::send(flooder, burst.data(), burst.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      FAIL() << "flood send failed: " << std::strerror(errno);
    }
    sent += static_cast<std::size_t>(n);
  }
  // Let the worker ingest the flood and jam its reply path.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The stalled sibling must not delay this connection. Run the probe in a
  // worker future so a regression shows up as a clean timeout instead of a
  // hung test binary.
  auto probe = std::async(std::launch::async, [&server] {
    KvsClient client("127.0.0.1", server.port());
    for (int i = 0; i < 50; ++i) {
      const std::string key = "probe-" + std::to_string(i);
      if (!client.set(key, "value-" + key, 0, 0)) return false;
      if (client.get(key).value != "value-" + key) return false;
    }
    // STATS must also flow while the sibling is jammed, and must report
    // the event-driven backend.
    const auto stats = client.stats();
    return stats.at("io_backend") == std::string(EventLoop::backend()) &&
           stats.count("accept_failures") == 1;
  });
  ASSERT_EQ(probe.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "worker is stalled behind the slow reader";
  EXPECT_TRUE(probe.get());

  ::close(flooder);
  server.stop();
}

/// A peer that disappears mid-flood (reset, not orderly shutdown) must be
/// reaped without disturbing its worker siblings.
TEST(SlowReaderTest, AbortedSlowReaderIsReaped) {
  ServerConfig config = server_config();
  config.workers = 1;
  const util::SteadyClock clock;
  KvsServer server(config, lru_factory(), clock);
  server.start();
  {
    KvsClient seeder("127.0.0.1", server.port());
    ASSERT_TRUE(seeder.set("big", std::string(200'000, 'x'), 0, 0));
  }
  const int flooder = connect_raw(server.port());
  std::string burst;
  for (int i = 0; i < 64; ++i) burst += "get big\r\n";
  (void)::send(flooder, burst.data(), burst.size(),
               MSG_DONTWAIT | MSG_NOSIGNAL);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // RST the flooder: SO_LINGER 0 + close sends a reset instead of FIN.
  const linger hard{1, 0};
  ::setsockopt(flooder, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(flooder);

  KvsClient client("127.0.0.1", server.port());
  EXPECT_TRUE(client.set("after", "ok", 0, 0));
  EXPECT_EQ(client.get("after").value, "ok");
  server.stop();
}

// ---- EINTR end to end ------------------------------------------------------

std::atomic<int> g_usr1_count{0};
void on_usr1(int) { g_usr1_count.fetch_add(1, std::memory_order_relaxed); }

/// Big-value roundtrips under a SIGUSR1 storm with SA_RESTART disabled:
/// every blocking syscall in client and server, the client's connect
/// included, is eligible to fail with EINTR. The old code treated that as
/// a fatal error ("connection closed" / dropped connection / "connect
/// failed: Interrupted system call"); every roundtrip must survive.
TEST(SignalStormTest, RoundtripsSurviveEintr) {
  struct sigaction sa {};
  sa.sa_handler = &on_usr1;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  const util::SteadyClock clock;
  KvsServer server(server_config(), lru_factory(), clock);
  server.start();

  const pthread_t target = ::pthread_self();
  // A jthread stops and joins the storm on every exit path, so a failed
  // ASSERT or a throwing client reports its message instead of
  // std::terminate firing on a still-joinable thread.
  std::jthread storm([&](std::stop_token stop) {
    while (!stop.stop_requested()) {
      // Alternate between this (client) thread and the whole process, so
      // the server's worker threads catch interrupts too.
      (void)::pthread_kill(target, SIGUSR1);
      (void)::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  {
    KvsClient client("127.0.0.1", server.port());
    const std::string big(150'000, 'p');
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(client.set("storm", big, 0, 0)) << "iteration " << i;
      ASSERT_EQ(client.get("storm").value.size(), big.size())
          << "iteration " << i;
    }
  }

  storm.request_stop();
  storm.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
  EXPECT_GT(g_usr1_count.load(), 0) << "storm never actually delivered";
  server.stop();
}

}  // namespace
}  // namespace camp::kvs
