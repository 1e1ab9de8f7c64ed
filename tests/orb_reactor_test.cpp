// Reactor serving-core tests: accept-path resilience under fd pressure,
// socket-timeout clamping, resource release without per-connection threads,
// the multi-client concurrency matrix (pipelining × oneway × mid-call stop),
// slow-consumer disconnect, and worker-pool liveness growth.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "obs/metrics.h"
#include "orb/orb.h"

namespace adapt::orb {
namespace {

using namespace std::chrono_literals;

size_t open_fd_count() {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

size_t thread_count() {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

double elapsed_seconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Blocking client socket speaking raw frames (5s recv timeout so a broken
/// server fails the test instead of hanging it).
int dial_raw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const timeval tv{5, 0};
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

Bytes payload_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::optional<Bytes> echo_handler(const Bytes& request) { return request; }

bool wait_until(const std::function<bool()>& cond, std::chrono::milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return cond();
}

// ---- timeout clamping -----------------------------------------------------

TEST(SocketTimeoutTest, ClampsTinyAndHugeBudgets) {
  // A tiny positive budget must not truncate to {0,0}: that *disables*
  // SO_RCVTIMEO/SO_SNDTIMEO and turns an almost-expired deadline into an
  // indefinite block.
  timeval tv = clamp_socket_timeout(1e-7);
  EXPECT_EQ(tv.tv_sec, 0);
  EXPECT_EQ(tv.tv_usec, 1);

  tv = clamp_socket_timeout(0.0);
  EXPECT_EQ(tv.tv_sec, 0);
  EXPECT_EQ(tv.tv_usec, 1);

  tv = clamp_socket_timeout(-3.0);
  EXPECT_EQ(tv.tv_sec, 0);
  EXPECT_EQ(tv.tv_usec, 1);

  tv = clamp_socket_timeout(2.5);
  EXPECT_EQ(tv.tv_sec, 2);
  EXPECT_NEAR(static_cast<double>(tv.tv_usec), 500000.0, 2.0);

  // Huge budgets are capped instead of overflowing time_t.
  tv = clamp_socket_timeout(1e300);
  EXPECT_EQ(tv.tv_sec, static_cast<time_t>(1e8));

  tv = clamp_socket_timeout(std::nan(""));
  EXPECT_EQ(tv.tv_sec, 0);
  EXPECT_EQ(tv.tv_usec, 1);
}

TEST(SocketTimeoutTest, TinyPositiveBudgetTimesOutInsteadOfBlocking) {
  // Regression: deadline - now() ~ 1e-7s used to truncate to a zero timeval,
  // disabling the socket timeout — the call then blocked for as long as the
  // peer took instead of expiring. A frozen pool clock keeps the in-pool
  // deadline checks positive, so only the socket timeout can end the call.
  std::atomic<bool> slow{false};
  TcpListener listener("127.0.0.1", 0, [&](const Bytes& request) -> std::optional<Bytes> {
    if (slow) std::this_thread::sleep_for(2s);
    return request;
  });

  PoolConfig config;
  config.timeout = 5.0;
  config.now = [] { return 0.0; };
  TcpConnectionPool pool(std::move(config), nullptr);
  const Bytes request = payload_of("ping");

  // Warm the pool so the tiny-budget call reuses a connection (no dial).
  EXPECT_NO_THROW(pool.call(listener.endpoint(), request));
  slow = true;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(pool.call(listener.endpoint(), request, 1e-7), TimeoutError);
  EXPECT_LT(elapsed_seconds(start), 1.0) << "tiny budget blocked instead of expiring";
}

TEST(SocketTimeoutTest, TricklingPeerCannotOutliveTheDeadline) {
  // A peer answering one byte every 50 ms used to restart the per-syscall
  // SO_RCVTIMEO with each fragment, so a 0.3 s call returned its 44-byte
  // reply after ~2.2 s. Every recv after the first now gets only what is
  // left of the call's absolute deadline.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t addr_len = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);
  const std::string endpoint = "tcp://127.0.0.1:" + std::to_string(ntohs(addr.sin_port));

  std::thread peer([lfd] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    (void)read_frame(fd);
    ByteWriter reply;
    reply.u32(40);
    reply.raw(Bytes(40, 'x').data(), 40);
    for (const uint8_t byte : reply.bytes()) {
      if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1) break;  // the client gave up
      std::this_thread::sleep_for(50ms);
    }
    ::close(fd);
  });

  TcpConnectionPool pool(5.0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(pool.call(endpoint, payload_of("ping"), 0.3), TimeoutError);
  EXPECT_LT(elapsed_seconds(start), 0.6) << "a trickling peer outlived the 0.3 s deadline";
  peer.join();
  ::close(lfd);
}

// ---- accept-path resilience -----------------------------------------------

TEST(ReactorTest, AcceptSurvivesFdExhaustion) {
  // Regression: the old accept loop returned — permanently deafening the
  // server — on any non-EINTR accept failure, EMFILE included. The reactor
  // must count the error, back off, and recover once descriptors free up.
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);

  TcpListener listener("127.0.0.1", 0, echo_handler);
  const int warm = dial_raw(listener.port());
  ASSERT_TRUE(wait_until([&] { return listener.live_connections() == 1; }, 2000ms));
  write_frame(warm, payload_of("warm"));
  EXPECT_EQ(read_frame(warm).value(), payload_of("warm"));

  // Client socket first (it needs an fd of its own), then exhaust the rest
  // of the budget so the server-side accept(2) has nothing left.
  const int starved = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(starved, 0);

  // Silence the logger while descriptors are exhausted: the accept-failure
  // warning would be this process's first ostringstream construction, and
  // GCC's UBSan verifies its vptr by opening /proc/self/maps — which needs
  // an fd we no longer have, yielding a false "invalid vptr" report.
  const LogLevel saved_level = log_level();
  set_log_level(LogLevel::Off);

  rlimit tight = saved;
  tight.rlim_cur = open_fd_count() + 1;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> hogs;
  for (;;) {
    const int fd = ::dup(0);
    if (fd < 0) break;
    hogs.push_back(fd);
  }

  const uint64_t errors_before = obs::metrics().counter("orb.accept.error").value();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  // The TCP handshake completes in the kernel backlog; accepting it needs a
  // descriptor the process no longer has.
  ASSERT_EQ(::connect(starved, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  EXPECT_TRUE(wait_until(
      [&] { return obs::metrics().counter("orb.accept.error").value() > errors_before; },
      3000ms))
      << "accept failure was not observed/counted";

  // Release the pressure: the backoff expires, the listener re-arms, and the
  // queued connection is finally served.
  for (const int fd : hogs) ::close(fd);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  set_log_level(saved_level);

  const timeval tv{5, 0};
  (void)setsockopt(starved, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  write_frame(starved, payload_of("after-recovery"));
  EXPECT_EQ(read_frame(starved).value(), payload_of("after-recovery"))
      << "listener did not recover from fd exhaustion";

  ::close(starved);
  ::close(warm);
}

// ---- resource release -----------------------------------------------------

TEST(ReactorTest, ClosedConnectionsReleaseResourcesWithoutNewAccept) {
  // Regression: finished per-connection threads used to be reaped only from
  // the accept loop, so a listener going quiet after a burst held resources
  // until the next accept (or stop). The reactor must release them as the
  // disconnects happen — with no subsequent accept to nudge it.
  TcpListener listener("127.0.0.1", 0, echo_handler);
  {
    // Warm lazily-created fds before taking the baseline.
    const int fd = dial_raw(listener.port());
    write_frame(fd, payload_of("x"));
    EXPECT_TRUE(read_frame(fd).has_value());
    ::close(fd);
  }
  ASSERT_TRUE(wait_until([&] { return listener.live_connections() == 0; }, 2000ms));
  const size_t fds_before = open_fd_count();

  constexpr int kConns = 12;
  std::vector<int> fds;
  for (int i = 0; i < kConns; ++i) {
    const int fd = dial_raw(listener.port());
    write_frame(fd, payload_of("c" + std::to_string(i)));
    EXPECT_TRUE(read_frame(fd).has_value());
    fds.push_back(fd);
  }
  EXPECT_TRUE(wait_until(
      [&] { return listener.live_connections() == static_cast<size_t>(kConns); },
      2000ms));
  for (const int fd : fds) ::close(fd);

  // No further accept happens; the reactor must still notice every EOF.
  EXPECT_TRUE(wait_until([&] { return listener.live_connections() == 0; }, 3000ms))
      << "live connections not released without a subsequent accept";
  EXPECT_TRUE(wait_until([&] { return open_fd_count() <= fds_before; }, 3000ms))
      << "fds not released: " << open_fd_count() << " > " << fds_before;
}

TEST(ReactorTest, NoThreadPerConnection) {
  TcpListener listener("127.0.0.1", 0, echo_handler);
  const size_t threads_before = thread_count();

  constexpr int kConns = 24;
  std::vector<int> fds;
  for (int i = 0; i < kConns; ++i) {
    const int fd = dial_raw(listener.port());
    write_frame(fd, payload_of("t"));
    EXPECT_TRUE(read_frame(fd).has_value());
    fds.push_back(fd);
  }
  // All 24 connections are open and have been served; the old model would
  // sit at baseline + 24 serving threads here.
  EXPECT_LE(thread_count(), threads_before + 3)
      << "per-connection threads detected";
  for (const int fd : fds) ::close(fd);
}

// ---- concurrency matrix ---------------------------------------------------

TEST(ReactorTest, MultiClientPipelinedCallsLoseNoReplies) {
  TcpListener listener("127.0.0.1", 0, echo_handler);
  constexpr int kClients = 8;
  constexpr int kBatches = 25;
  constexpr int kPipeline = 4;
  std::atomic<int> mismatches{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = dial_raw(listener.port());
      for (int b = 0; b < kBatches; ++b) {
        // Pipelined: write the whole batch, then collect the replies; they
        // must come back complete, in order, one per request.
        for (int i = 0; i < kPipeline; ++i) {
          write_frame(fd, payload_of("c" + std::to_string(c) + ".b" + std::to_string(b) +
                                     "." + std::to_string(i)));
        }
        for (int i = 0; i < kPipeline; ++i) {
          const auto reply = read_frame(fd);
          const Bytes expect = payload_of("c" + std::to_string(c) + ".b" +
                                          std::to_string(b) + "." + std::to_string(i));
          if (!reply || *reply != expect) ++mismatches;
        }
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(wait_until([&] { return listener.live_connections() == 0; }, 3000ms));
}

TEST(ReactorTest, OnewayFramesInterleavedWithCalls) {
  // Frames starting with 'O' are oneway (no reply); the replies to the
  // interleaved two-way frames must still arrive complete and in order.
  std::atomic<int> oneways{0};
  TcpListener listener("127.0.0.1", 0, [&](const Bytes& request) -> std::optional<Bytes> {
    if (!request.empty() && request[0] == 'O') {
      ++oneways;
      return std::nullopt;
    }
    return request;
  });

  const int fd = dial_raw(listener.port());
  constexpr int kRounds = 60;
  std::vector<Bytes> expected;
  for (int i = 0; i < kRounds; ++i) {
    if (i % 3 == 0) {
      write_frame(fd, payload_of("O." + std::to_string(i)));
    } else {
      const Bytes p = payload_of("R." + std::to_string(i));
      write_frame(fd, p);
      expected.push_back(p);
    }
  }
  for (const Bytes& expect : expected) {
    const auto reply = read_frame(fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, expect);
  }
  EXPECT_TRUE(wait_until([&] { return oneways.load() == kRounds / 3; }, 2000ms));
  ::close(fd);
}

TEST(ReactorTest, StopMidCallFlushesInFlightReply) {
  // stop() joins the workers, so a handler already running finishes and its
  // reply reaches the client — a graceful stop loses no in-flight reply.
  std::atomic<bool> in_handler{false};
  TcpListener listener("127.0.0.1", 0, [&](const Bytes& request) -> std::optional<Bytes> {
    in_handler = true;
    std::this_thread::sleep_for(200ms);
    return request;
  });

  const int fd = dial_raw(listener.port());
  write_frame(fd, payload_of("mid-call"));
  ASSERT_TRUE(wait_until([&] { return in_handler.load(); }, 2000ms));

  const auto start = std::chrono::steady_clock::now();
  listener.stop();
  EXPECT_LT(elapsed_seconds(start), 5.0);
  EXPECT_EQ(read_frame(fd).value(), payload_of("mid-call"));
  // After the flushed reply the connection is closed for good.
  EXPECT_FALSE(read_frame(fd).has_value());
  listener.stop();  // idempotent
  ::close(fd);
}

TEST(ReactorTest, StopUnderConcurrentTrafficShutsDownCleanly) {
  TcpListener listener("127.0.0.1", 0, echo_handler);
  constexpr int kClients = 8;
  std::atomic<int> finished{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      try {
        const int fd = dial_raw(listener.port());
        for (;;) {
          write_frame(fd, payload_of("spin"));
          const auto reply = read_frame(fd);
          if (!reply) break;  // server stopped: orderly EOF
        }
        ::close(fd);
      } catch (const Error&) {
        // RST / send-on-closed are equally acceptable shutdown outcomes.
      }
      ++finished;
    });
  }
  std::this_thread::sleep_for(50ms);
  listener.stop();
  for (auto& t : clients) t.join();
  EXPECT_EQ(finished.load(), kClients);
  EXPECT_EQ(listener.live_connections(), 0u);
}

// ---- slow-consumer policy -------------------------------------------------

TEST(ReactorTest, SlowConsumerExceedingWriteQueueCapIsDisconnected) {
  ReactorConfig config;
  config.write_queue_cap = 64u * 1024;
  TcpListener listener(
      "127.0.0.1", 0,
      [](const Bytes&) -> std::optional<Bytes> { return Bytes(1u << 20, 0xAB); },
      config);

  const uint64_t overruns_before = obs::metrics().counter("orb.conn.overrun").value();
  const int fd = dial_raw(listener.port());
  // Request a flood of 1 MiB replies and never read them: once the socket
  // buffers fill, pending output blows past the cap and the reactor must
  // drop the connection instead of buffering without bound. The drop can
  // come before all 64 requests are written; the first send that fails
  // then ends the loop, and the two checks below give the verdict.
  try {
    for (int i = 0; i < 64; ++i) write_frame(fd, payload_of("more"));
  } catch (const Error&) {
    // ECONNRESET / EPIPE: the reactor already closed the connection.
  }

  EXPECT_TRUE(wait_until(
      [&] { return obs::metrics().counter("orb.conn.overrun").value() > overruns_before; },
      5000ms))
      << "write-queue overrun not detected";
  EXPECT_TRUE(wait_until([&] { return listener.live_connections() == 0; }, 5000ms))
      << "slow consumer not disconnected";
  ::close(fd);
}

// ---- worker-pool liveness -------------------------------------------------

TEST(ReactorTest, PoolGrowsWhenEveryWorkerBlocksInHandlers) {
  ReactorConfig config;
  config.workers = 1;
  config.max_workers = 8;
  TcpListener listener(
      "127.0.0.1", 0,
      [](const Bytes& request) -> std::optional<Bytes> {
        std::this_thread::sleep_for(500ms);
        return request;
      },
      config);
  ASSERT_EQ(listener.worker_count(), 1u);

  // Two concurrent slow calls against a single worker: without supervisor
  // growth the second serializes behind the first (>= 1s); with it, both
  // run in parallel once the stall is detected.
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  std::atomic<int> replies{0};
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      const int fd = dial_raw(listener.port());
      write_frame(fd, payload_of("slow"));
      if (read_frame(fd).has_value()) ++replies;
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(replies.load(), 2);
  EXPECT_LT(elapsed_seconds(start), 0.95) << "second call serialized behind a "
                                             "blocked worker: pool did not grow";
  EXPECT_GE(listener.worker_count(), 2u);
}

// ---- ORB-level sanity over the reactor ------------------------------------

TEST(ReactorTest, OrbInvokeMatrixOverReactor) {
  OrbConfig server_cfg;
  server_cfg.name = "reactor-matrix-server";
  server_cfg.listen_tcp = true;
  server_cfg.reactor_workers = 2;
  auto server = Orb::create(server_cfg);
  auto servant = FunctionServant::make("Echo");
  auto oneway_hits = std::make_shared<std::atomic<int>>(0);
  servant->on("echo", [](const ValueList& args) { return args.at(0); });
  servant->on("note", [oneway_hits](const ValueList&) {
    ++*oneway_hits;
    return Value();
  });
  const ObjectRef ref = server->register_servant(servant);

  constexpr int kClients = 4;
  constexpr int kCalls = 25;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = Orb::create({.name = "reactor-matrix-client-" + std::to_string(t)});
      for (int i = 0; i < kCalls; ++i) {
        const std::string token = std::to_string(t) + ":" + std::to_string(i);
        if (client->invoke(ref, "echo", {Value(token)}).as_string() != token) ++errors;
        if (i % 5 == 0) client->invoke_oneway(ref, "note");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(wait_until(
      [&] { return oneway_hits->load() == kClients * (kCalls / 5); }, 3000ms));
  EXPECT_EQ(server->stats().requests_served,
            static_cast<uint64_t>(kClients * kCalls + oneway_hits->load()));
}

}  // namespace
}  // namespace adapt::orb
