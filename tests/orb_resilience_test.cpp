// Resilience of the client-side RPC path: stale pooled connections are
// transparently redialed, idempotent calls are retried with backoff under a
// deadline, listener fd/thread bookkeeping survives churn, and every
// failure is visible in OrbStats (C++ and Luma).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "monitor/bindings.h"
#include "orb/orb.h"
#include "orb/script_bindings.h"
#include "script/engine.h"

namespace adapt::orb {
namespace {

size_t open_fd_count() {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

double elapsed_seconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Wire-speaking echo handler for raw TcpListener tests.
std::optional<Bytes> ok_handler(const Bytes& payload) {
  const RequestMessage req = decode_request(payload);
  ReplyMessage rep;
  rep.request_id = req.request_id;
  rep.status = ReplyStatus::Ok;
  rep.result = Value(true);
  return encode_reply(rep);
}

// ---- acceptance: restart a TCP peer between two invokes -------------------

TEST(OrbResilienceTest, StaleConnectionRedialAfterServerRestart) {
  auto make_servant = [](double version) {
    auto servant = FunctionServant::make("S");
    servant->on("v", [version](const ValueList&) { return Value(version); });
    return servant;
  };

  OrbConfig server_cfg;
  server_cfg.name = "redial-server-a";
  server_cfg.listen_tcp = true;
  auto server = Orb::create(server_cfg);
  const ObjectRef ref = server->register_servant(make_servant(1.0), "the-object");
  const uint16_t port = TcpAddress::parse(server->endpoint()).port;

  auto client = Orb::create({.name = "redial-client", .request_timeout = 5.0});
  EXPECT_DOUBLE_EQ(client->invoke(ref, "v", {}).as_number(), 1.0);
  EXPECT_EQ(client->stats().redials, 0u);

  // Kill the peer and bring a new incarnation up on the same port. The
  // client's pooled connection is now stale.
  server->shutdown();
  OrbConfig revived_cfg;
  revived_cfg.name = "redial-server-b";
  revived_cfg.listen_tcp = true;
  revived_cfg.listen_port = port;
  auto revived = Orb::create(revived_cfg);
  revived->register_servant(make_servant(2.0), "the-object");

  // Same proxy ref, same client ORB: the call must succeed via transparent
  // redial — "v" is not idempotent, so the stale socket must be caught at
  // checkout (peek sees the dead peer's FIN), before the request is sent.
  EXPECT_DOUBLE_EQ(client->invoke(ref, "v", {}).as_number(), 2.0);
  EXPECT_GE(client->stats().redials, 1u);

  // The same counter is observable from Luma through the orb binding.
  script::ScriptEngine engine;
  install_orb_bindings(engine, client);
  EXPECT_GE(engine.eval1("return orb.stats().redials").as_number(), 1.0);
  EXPECT_GT(engine.eval1("return orb.stats().requests").as_number(), 0.0);

  // And remotely through the _stats builtin of the revived server.
  const Value remote = client->invoke(ref, "_stats", {});
  ASSERT_TRUE(remote.is_table());
  EXPECT_GE(remote.as_table()->get(Value("requests_served")).as_number(), 1.0);
}

// Satellite regression: the raw pool redials across a listener restart on
// the same port between two call()s.
TEST(OrbResilienceTest, PoolCallSurvivesListenerRestartOnSamePort) {
  auto listener = std::make_unique<TcpListener>("127.0.0.1", 0, ok_handler);
  const uint16_t port = listener->port();
  const std::string endpoint = listener->endpoint();

  TcpConnectionPool pool(2.0);
  const Bytes request = encode_request(RequestMessage{1, false, "obj", "_ping", {}});
  EXPECT_NO_THROW(pool.call(endpoint, request));
  EXPECT_EQ(pool.idle_count(endpoint), 1u);

  listener.reset();  // peer gone; pooled connection is now stale
  listener = std::make_unique<TcpListener>("127.0.0.1", port, ok_handler);

  // Before the redial logic this surfaced as "connection closed before reply".
  EXPECT_NO_THROW(pool.call(endpoint, request));
}

// A oneway request runs the same attempt loop as call(): over the stale
// pooled connection left by a listener restart on the same port, it is
// redialed and delivered.
TEST(OrbResilienceTest, PoolSendSurvivesListenerRestartOnSamePort) {
  std::atomic<int> delivered{0};
  const auto count_oneway = [&](const Bytes&) -> std::optional<Bytes> {
    ++delivered;
    return std::nullopt;
  };
  const auto wait_for_delivered = [&](int n) {
    const auto start = std::chrono::steady_clock::now();
    while (delivered.load() < n && elapsed_seconds(start) < 2.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return delivered.load();
  };
  auto listener = std::make_unique<TcpListener>("127.0.0.1", 0, count_oneway);
  const uint16_t port = listener->port();
  const std::string endpoint = listener->endpoint();

  auto stats = std::make_shared<OrbStatsCounters>();
  TcpConnectionPool pool(PoolConfig{.timeout = 2.0}, stats);
  const Bytes request = encode_request(RequestMessage{1, true, "obj", "notify", {}});
  pool.send(endpoint, request);
  EXPECT_EQ(wait_for_delivered(1), 1);
  EXPECT_EQ(pool.idle_count(endpoint), 1u);

  listener.reset();  // peer gone; pooled connection is now stale
  listener = std::make_unique<TcpListener>("127.0.0.1", port, count_oneway);

  EXPECT_NO_THROW(pool.send(endpoint, request));
  EXPECT_EQ(wait_for_delivered(2), 2);
  EXPECT_GE(stats->snapshot().redials, 1u);
}

// The post-write failure window: the peer read the whole request and died
// before replying. It may have executed the request, so only idempotent
// calls may be re-sent on a fresh connection.
TEST(OrbResilienceTest, PostWriteEofRedialsOnlyIdempotentCalls) {
  std::atomic<bool> kill_next{false};
  TcpListener listener("127.0.0.1", 0, [&](const Bytes& payload) -> std::optional<Bytes> {
    if (kill_next.exchange(false)) throw std::runtime_error("die after read");
    return ok_handler(payload);
  });
  const std::string endpoint = listener.endpoint();
  const Bytes request = encode_request(RequestMessage{1, false, "obj", "op", {}});

  auto stats = std::make_shared<OrbStatsCounters>();
  TcpConnectionPool pool(PoolConfig{.timeout = 2.0}, stats);

  // Warm the pool so the next call runs on a reused connection, then have
  // the peer consume the request and close without replying. A
  // non-idempotent call must surface the failure, not re-execute.
  pool.call(endpoint, request);
  ASSERT_EQ(pool.idle_count(endpoint), 1u);
  kill_next = true;
  EXPECT_THROW(pool.call(endpoint, request, 0.0, /*idempotent=*/false), TransportError);
  EXPECT_EQ(stats->snapshot().redials, 0u);

  // The same failure on an idempotent call redials transparently.
  pool.call(endpoint, request);
  ASSERT_EQ(pool.idle_count(endpoint), 1u);
  kill_next = true;
  EXPECT_NO_THROW(pool.call(endpoint, request, 0.0, /*idempotent=*/true));
  EXPECT_EQ(stats->snapshot().redials, 1u);
}

// ---- retry policy ---------------------------------------------------------

TEST(OrbResilienceTest, IdempotentCallRetriesThroughInjectedFaults) {
  // The first two requests hit a handler that dies with a std::exception
  // (not adapt::Error): the listener must log-and-close, not terminate, and
  // the client's retry policy must carry the call to the third attempt.
  std::atomic<int> faults_left{2};
  TcpListener listener("127.0.0.1", 0, [&](const Bytes& payload) -> std::optional<Bytes> {
    if (faults_left.fetch_sub(1) > 0) throw std::runtime_error("injected fault");
    return ok_handler(payload);
  });

  auto client = Orb::create({.name = "retry-client"});
  ObjectRef ref{listener.endpoint(), "obj", ""};
  InvokeOptions options;
  options.idempotent = true;
  options.retry = RetryPolicy{.max_attempts = 5, .initial_backoff = 0.005,
                              .backoff_multiplier = 2.0, .max_backoff = 0.05, .jitter = 0.2};
  EXPECT_TRUE(client->invoke(ref, "_ping", {}, options).truthy());
  const OrbStats stats = client->stats();
  EXPECT_GE(stats.retries, 2u);
  EXPECT_GE(stats.transport_errors, 2u);
  EXPECT_GE(stats.replies, 1u);
}

TEST(OrbResilienceTest, RetryCountsAreExactAgainstDeadEndpoint) {
  auto client = Orb::create({.name = "retry-dead-client"});
  // Find a port that is almost certainly closed: bind-then-destroy.
  std::string endpoint;
  {
    TcpListener probe("127.0.0.1", 0, ok_handler);
    endpoint = probe.endpoint();
  }
  ObjectRef ref{endpoint, "obj", ""};
  InvokeOptions options;
  options.idempotent = true;
  options.retry = RetryPolicy{.max_attempts = 3, .initial_backoff = 0.005,
                              .backoff_multiplier = 2.0, .max_backoff = 0.02, .jitter = 0.0};
  EXPECT_THROW(client->invoke(ref, "_ping", {}, options), TransportError);
  const OrbStats stats = client->stats();
  EXPECT_EQ(stats.retries, 2u);            // attempts 2 and 3
  EXPECT_EQ(stats.transport_errors, 3u);   // every attempt failed
  EXPECT_EQ(stats.replies, 0u);

  // Non-idempotent operations never retry.
  EXPECT_THROW(client->invoke(ref, "mutate", {}), TransportError);
  EXPECT_EQ(client->stats().retries, 2u);
}

// ---- the re-issue rule ------------------------------------------------------

TEST(ReissueRuleTest, DecisionTable) {
  struct Row {
    const char* name;
    std::shared_ptr<const std::exception> failure;
    bool idempotent;
    bool retry;     // Reissue::Retry: same endpoint after a backoff
    bool failover;  // Reissue::Failover: another target or a fresh connection
  };
  const auto transport = [](bool executed) {
    return std::make_shared<TransportError>("down", executed);
  };
  const auto timeout = [](bool executed) {
    return std::make_shared<TimeoutError>("slow", executed);
  };
  const auto missing = std::make_shared<ObjectNotFound>("gone");
  const auto overloaded = std::make_shared<Overloaded>("busy");
  const auto expired = std::make_shared<DeadlineExceeded>("late");
  const auto remote = std::make_shared<RemoteError>("raised");
  const auto bad_op = std::make_shared<BadOperation>("unknown");
  const auto other = std::make_shared<std::runtime_error>("other");
  const std::vector<Row> rows = {
      {"transport, unsent, non-idempotent", transport(false), false, false, true},
      {"transport, unsent, idempotent", transport(false), true, true, true},
      {"transport, maybe executed, non-idempotent", transport(true), false, false, false},
      {"transport, maybe executed, idempotent", transport(true), true, true, true},
      {"timeout, unsent, non-idempotent", timeout(false), false, false, true},
      {"timeout, unsent, idempotent", timeout(false), true, false, true},
      {"timeout, maybe executed, non-idempotent", timeout(true), false, false, false},
      {"timeout, maybe executed, idempotent", timeout(true), true, false, true},
      {"object not found, non-idempotent", missing, false, false, true},
      {"object not found, idempotent", missing, true, false, true},
      {"overloaded, non-idempotent", overloaded, false, true, false},
      {"overloaded, idempotent", overloaded, true, true, false},
      {"deadline exceeded, non-idempotent", expired, false, false, false},
      {"deadline exceeded, idempotent", expired, true, false, false},
      {"remote error, idempotent", remote, true, false, false},
      {"bad operation, idempotent", bad_op, true, false, false},
      {"non-orb error, idempotent", other, true, false, false},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(may_reissue(Reissue::Retry, row.idempotent, row.failure.get()), row.retry)
        << row.name;
    EXPECT_EQ(may_reissue(Reissue::Failover, row.idempotent, row.failure.get()),
              row.failover)
        << row.name;
  }
  // A hedge races an attempt that may yet execute.
  EXPECT_TRUE(may_reissue(Reissue::Hedge, /*idempotent=*/true));
  EXPECT_FALSE(may_reissue(Reissue::Hedge, /*idempotent=*/false));
}

// ---- deadlines ------------------------------------------------------------

TEST(OrbResilienceTest, PerCallDeadlineBeatsOrbDefault) {
  OrbConfig server_cfg;
  server_cfg.name = "deadline-server";
  server_cfg.listen_tcp = true;
  auto server = Orb::create(server_cfg);
  auto servant = FunctionServant::make("Slow");
  servant->on("sleep", [](const ValueList&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    return Value("done");
  });
  const ObjectRef ref = server->register_servant(servant);

  auto client = Orb::create({.name = "deadline-client", .request_timeout = 10.0});
  InvokeOptions options;
  options.deadline = 0.15;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client->invoke(ref, "sleep", {}, options), TimeoutError);
  // Must honor the 150ms per-call deadline, not the 10s ORB default.
  EXPECT_LT(elapsed_seconds(start), 5.0);
  EXPECT_GE(client->stats().timeouts, 1u);

  // The default budget still applies when no override is given.
  EXPECT_EQ(client->invoke(ref, "sleep", {}).as_string(), "done");
}

// ---- listener lifecycle ---------------------------------------------------

TEST(OrbResilienceTest, ListenerChurnLeaksNoFds) {
  TcpListener listener("127.0.0.1", 0, ok_handler);
  const Bytes request = encode_request(RequestMessage{1, false, "obj", "_ping", {}});

  // Warm up lazily-created fds (epoll, /etc/hosts caches, ...) first.
  {
    TcpConnectionPool pool(2.0);
    pool.call(listener.endpoint(), request);
  }
  for (int i = 0; i < 10 && listener.live_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const size_t before = open_fd_count();

  constexpr int kCycles = 40;
  for (int i = 0; i < kCycles; ++i) {
    TcpConnectionPool pool(2.0);
    pool.call(listener.endpoint(), request);
  }  // pool destruction closes the client side; the server side sees EOF

  // Wait for the listener to notice every disconnect and close its side.
  for (int i = 0; i < 200 && listener.live_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(listener.live_connections(), 0u);
  const size_t after = open_fd_count();
  EXPECT_LE(after, before + 4) << "fd leak across " << kCycles << " connection cycles";
}

// ---- pool caps & reaping --------------------------------------------------

TEST(OrbResilienceTest, PoolEnforcesPerEndpointIdleCap) {
  // A slow handler keeps several connections in flight at once.
  TcpListener listener("127.0.0.1", 0, [](const Bytes& payload) -> std::optional<Bytes> {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return ok_handler(payload);
  });

  PoolConfig config;
  config.timeout = 5.0;
  config.max_idle_per_endpoint = 2;
  auto stats = std::make_shared<OrbStatsCounters>();
  TcpConnectionPool pool(std::move(config), stats);

  const Bytes request = encode_request(RequestMessage{1, false, "obj", "_ping", {}});
  std::vector<std::thread> threads;
  for (int i = 0; i < 5; ++i) {
    threads.emplace_back([&] { pool.call(listener.endpoint(), request); });
  }
  for (auto& t : threads) t.join();

  EXPECT_GE(pool.idle_count(listener.endpoint()), 1u);
  EXPECT_LE(pool.idle_count(listener.endpoint()), 2u);
  EXPECT_GE(stats->snapshot().connections_opened, 3u);
}

TEST(OrbResilienceTest, PoolReapsAgedIdleConnections) {
  TcpListener listener("127.0.0.1", 0, ok_handler);

  double fake_now = 0.0;
  PoolConfig config;
  config.timeout = 2.0;
  config.max_idle_age = 10.0;
  config.now = [&fake_now] { return fake_now; };
  auto stats = std::make_shared<OrbStatsCounters>();
  TcpConnectionPool pool(std::move(config), stats);

  const Bytes request = encode_request(RequestMessage{1, false, "obj", "_ping", {}});
  pool.call(listener.endpoint(), request);
  ASSERT_EQ(pool.idle_count(listener.endpoint()), 1u);

  // Young connections survive and get reused...
  fake_now = 5.0;
  pool.call(listener.endpoint(), request);
  EXPECT_EQ(stats->snapshot().connections_reused, 1u);
  EXPECT_EQ(pool.idle_count(listener.endpoint()), 1u);

  // ...old ones are reaped instead of being handed out.
  fake_now = 100.0;
  EXPECT_EQ(pool.reap_idle(), 1u);
  EXPECT_EQ(pool.idle_count(listener.endpoint()), 0u);
}

TEST(OrbResilienceTest, StatsCountBytesAndConnections) {
  OrbConfig server_cfg;
  server_cfg.name = "stats-server";
  server_cfg.listen_tcp = true;
  auto server = Orb::create(server_cfg);
  auto servant = FunctionServant::make("Echo");
  servant->on("echo", [](const ValueList& args) { return args.at(0); });
  const ObjectRef ref = server->register_servant(servant);

  auto client = Orb::create({.name = "stats-client"});
  for (int i = 0; i < 3; ++i) {
    client->invoke(ref, "echo", {Value("payload-" + std::to_string(i))});
  }
  const OrbStats stats = client->stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.replies, 3u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_GT(stats.bytes_received, 0u);
  EXPECT_EQ(stats.connections_opened, 1u);
  EXPECT_EQ(stats.connections_reused, 2u);
  EXPECT_EQ(stats.redials, 0u);
  EXPECT_EQ(server->stats().requests_served, 3u);
}

TEST(OrbResilienceTest, MonitorServantDoesNotKeepOrbAlive) {
  // An EventMonitor is a servant *of* the ORB it notifies through, and it
  // shares a script engine whose monitor bindings reference that same ORB.
  // Either link held strongly is a cycle: the ORB (and its listener
  // threads) would outlive every external reference.
  std::weak_ptr<Orb> weak;
  {
    auto engine = std::make_shared<script::ScriptEngine>();
    OrbConfig cfg;
    cfg.listen_tcp = true;
    auto orb = Orb::create(cfg);
    weak = orb;
    monitor::install_monitor_bindings(*engine, orb, nullptr);
    ObjectRef ref;
    auto mon = monitor::create_event_monitor("LoadAvg", engine, orb, nullptr,
                                             Value(), 0.0, &ref);
    ASSERT_TRUE(orb->find_servant(ref.object_id));
  }
  EXPECT_TRUE(weak.expired());
}

}  // namespace
}  // namespace adapt::orb
