// bench_transport — client-side RPC path costs on the resilient transport.
//
// The ROADMAP north-star demands a transport that survives heavy traffic;
// this bench pins the costs the resilience work must not regress:
//   raw pooled frame round trip     the TcpConnectionPool floor
//   fresh-dial frame round trip     what every pool miss / redial pays
//   ORB TCP invoke (small args)     marshalling + retry plumbing on top
//   ORB TCP invoke (4 KiB string)   payload-dominated calls
//   ORB TCP ping                    idempotent builtin (retry-eligible path)
//   stats snapshot                  cost of observability reads
//
// `--json[=PATH] [--quick]` switches to the machine-readable harness
// (bench_json.h) and emits BENCH_transport.json; the JSON case list adds an
// invoke_small variant with the tracer disabled so the tracing overhead is
// directly visible as invoke_small vs invoke_small_notrace.
//
// `--reactor --json[=PATH] [--quick]` instead runs the concurrent-client
// serving sweep (emitting BENCH_reactor.json): an in-bench thread-per-
// connection echo server — the serving model the reactor replaced — against
// the real epoll-reactor TcpListener, at 1, 8 and 64 clients with pipelined
// batches. The single-client case runs as alternating threaded/reactor pairs
// with the client pinned to one CPU and the server to another.
// scripts/check.sh gates on the resulting ratios: reactor
// 64-client throughput >= 3x threaded, and the median over the pairs of the
// reactor/threaded single-client p50 ratio within 10%.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <barrier>
#include <thread>

#include "bench_json.h"
#include "obs/trace.h"
#include "orb/orb.h"

using namespace adapt;

namespace {

/// One echo server ORB plus a raw wire-speaking listener, shared per run.
struct Setup {
  Setup() {
    orb::OrbConfig server_cfg;
    server_cfg.name = "bench-transport-server";
    server_cfg.listen_tcp = true;
    server = orb::Orb::create(server_cfg);
    auto servant = orb::FunctionServant::make("Echo");
    servant->on("echo", [](const ValueList& args) {
      return args.empty() ? Value() : args[0];
    });
    ref = server->register_servant(servant);

    // Opt into wire-context emission so the traced cases measure the full
    // path (span + header encode + context tail), not just the span cost.
    orb::OrbConfig client_cfg;
    client_cfg.name = "bench-transport-client";
    client_cfg.propagate_wire_context = true;
    client = orb::Orb::create(client_cfg);

    listener = std::make_unique<orb::TcpListener>(
        "127.0.0.1", 0, [](const Bytes& payload) -> std::optional<Bytes> {
          const orb::RequestMessage req = orb::decode_request(payload);
          orb::ReplyMessage rep;
          rep.request_id = req.request_id;
          rep.status = orb::ReplyStatus::Ok;
          rep.result = Value(true);
          return orb::encode_reply(rep);
        });
    raw_request = orb::encode_request(
        orb::RequestMessage{.request_id = 1, .object_id = "obj", .operation = "_ping"});
  }

  static Setup& instance() {
    static Setup s;
    return s;
  }

  orb::OrbPtr server;
  orb::OrbPtr client;
  ObjectRef ref;
  std::unique_ptr<orb::TcpListener> listener;
  Bytes raw_request;
};

void BM_RawPooledRoundTrip(benchmark::State& state) {
  auto& s = Setup::instance();
  orb::TcpConnectionPool pool(5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.call(s.listener->endpoint(), s.raw_request));
  }
}
BENCHMARK(BM_RawPooledRoundTrip);

void BM_RawFreshDialRoundTrip(benchmark::State& state) {
  auto& s = Setup::instance();
  orb::TcpConnectionPool pool(5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.call(s.listener->endpoint(), s.raw_request));
    pool.clear();  // force the next iteration to dial
  }
}
BENCHMARK(BM_RawFreshDialRoundTrip);

void BM_OrbTcpInvokeSmall(benchmark::State& state) {
  auto& s = Setup::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.client->invoke(s.ref, "echo", {Value(42.0)}));
  }
}
BENCHMARK(BM_OrbTcpInvokeSmall);

void BM_OrbTcpInvokePayload4K(benchmark::State& state) {
  auto& s = Setup::instance();
  const Value payload(std::string(4096, 'x'));
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.client->invoke(s.ref, "echo", {payload}));
  }
}
BENCHMARK(BM_OrbTcpInvokePayload4K);

void BM_OrbTcpPing(benchmark::State& state) {
  auto& s = Setup::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.client->ping(s.ref));
  }
}
BENCHMARK(BM_OrbTcpPing);

void BM_StatsSnapshot(benchmark::State& state) {
  auto& s = Setup::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.client->stats());
  }
}
BENCHMARK(BM_StatsSnapshot);

// ---- reactor sweep ---------------------------------------------------------

/// The serving model the reactor replaced, reconstructed as the bench
/// baseline: blocking accept loop, one thread per connection running
/// read_frame/handle/write_frame until EOF. Kept faithful (TCP_NODELAY, same
/// frame helpers) so the sweep compares serving models, not socket tuning.
class ThreadedEchoServer {
 public:
  using Handler = std::function<std::optional<Bytes>(const Bytes&)>;

  explicit ThreadedEchoServer(Handler handler) : handler_(std::move(handler)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw orb::TransportError("bench server: socket failed");
    const int one = 1;
    (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(listen_fd_, 256) < 0) {
      ::close(listen_fd_);
      throw orb::TransportError("bench server: bind/listen failed");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    (void)::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~ThreadedEchoServer() { stop(); }

  [[nodiscard]] uint16_t port() const { return port_; }

  void stop() {
    if (stopping_.exchange(true)) return;
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<int> fds;
    std::vector<std::thread> threads;
    {
      std::scoped_lock lock(mu_);
      fds.swap(conn_fds_);
      threads.swap(conn_threads_);
    }
    for (const int fd : fds) ::shutdown(fd, SHUT_RDWR);
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
    for (const int fd : fds) ::close(fd);
  }

 private:
  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // listen socket closed: stopping
      const int one = 1;
      (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      std::scoped_lock lock(mu_);
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { serve(fd); });
    }
  }

  void serve(int fd) {
    try {
      for (;;) {
        const auto request = orb::read_frame(fd);
        if (!request) return;  // orderly EOF
        const auto reply = handler_(*request);
        if (reply) orb::write_frame(fd, *reply);
      }
    } catch (const Error&) {
      // Torn connection / shutdown — the thread just ends.
    }
  }

  Handler handler_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

int dial_nodelay(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    throw orb::TransportError("bench client: dial failed");
  }
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// N persistent client threads driven in lock-step batches: each run_batch()
/// releases every client to ship `pipeline` pipelined frames (one send) and
/// bulk-read the echoed replies back, then waits for all of them. One batch
/// = N * pipeline RPCs. Client I/O is deliberately minimal — one send plus a
/// few large recvs per batch — so the sweep measures the serving model under
/// load, not client-side syscall churn.
class SweepClients {
 public:
  SweepClients(uint16_t port, size_t n, size_t pipeline)
      : start_(static_cast<ptrdiff_t>(n + 1)),
        done_(static_cast<ptrdiff_t>(n + 1)) {
    const Bytes payload(16, 0x5A);
    for (size_t k = 0; k < pipeline; ++k) {
      const uint32_t len = static_cast<uint32_t>(payload.size());
      batch_.push_back(static_cast<uint8_t>(len));
      batch_.push_back(static_cast<uint8_t>(len >> 8));
      batch_.push_back(static_cast<uint8_t>(len >> 16));
      batch_.push_back(static_cast<uint8_t>(len >> 24));
      batch_.insert(batch_.end(), payload.begin(), payload.end());
    }
    for (size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this, port] {
        const int fd = dial_nodelay(port);
        std::vector<uint8_t> rx(batch_.size());
        for (;;) {
          start_.arrive_and_wait();
          if (stop_.load(std::memory_order_acquire)) break;
          // The server echoes, so the reply stream is byte-for-byte the
          // request batch; read until it has arrived in full.
          if (::send(fd, batch_.data(), batch_.size(), MSG_NOSIGNAL) !=
              static_cast<ssize_t>(batch_.size())) {
            ++errors_;
          } else {
            size_t got = 0;
            while (got < rx.size()) {
              const ssize_t rc = ::recv(fd, rx.data() + got, rx.size() - got, 0);
              if (rc <= 0) {
                ++errors_;
                break;
              }
              got += static_cast<size_t>(rc);
            }
          }
          done_.arrive_and_wait();
        }
        ::close(fd);
        done_.arrive_and_wait();
      });
    }
  }

  ~SweepClients() {
    stop_.store(true, std::memory_order_release);
    start_.arrive_and_wait();
    done_.arrive_and_wait();
    for (auto& t : threads_) t.join();
    if (errors_ > 0) {
      std::cerr << "bench sweep: " << errors_.load() << " client batch errors\n";
    }
  }

  void run_batch() {
    start_.arrive_and_wait();
    done_.arrive_and_wait();
  }

 private:
  Bytes batch_;
  std::barrier<> start_;
  std::barrier<> done_;
  std::atomic<bool> stop_{false};
  std::atomic<int> errors_{0};
  std::vector<std::thread> threads_;
};

/// Frames each client keeps in flight per batch in the multi-client sweeps.
constexpr size_t kPipeline = 32;

/// Threaded/reactor pairs of the single-client case; pair i runs
/// threaded_c1_<i> and reactor_c1_<i>, threaded first in even pairs.
constexpr int kC1Pairs = 9;

/// One single-client case with its own server. Before starting the server
/// the bench thread pins itself to one CPU, which the server and every
/// thread it starts inherit; then it pins itself to another CPU for the
/// client side. Unpinned, the scheduler moved either side between vCPUs
/// mid-case, and single runs of the reactor/threaded p50 ratio ranged from
/// -7% to +22%. The two sides stay on separate CPUs, as a client and server
/// do: on one shared CPU the round trip measures both sides' CPU cost added
/// up (there the reactor's is ~17% higher), not the latency a single
/// client sees.
struct PinnedC1 {
  cpu_set_t unpinned{};
  std::unique_ptr<ThreadedEchoServer> threaded;
  std::unique_ptr<orb::TcpListener> reactor;
  int fd = -1;

  static void pin_to(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }

  void start(bool use_reactor, const orb::TcpListener::Handler& echo) {
    (void)sched_getaffinity(0, sizeof unpinned, &unpinned);
    const int client_cpu = sched_getcpu();
    int server_cpu = client_cpu;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (cpu != client_cpu && CPU_ISSET(cpu, &unpinned)) {
        server_cpu = cpu;
        break;
      }
    }
    if (server_cpu >= 0) pin_to(server_cpu);
    uint16_t port = 0;
    if (use_reactor) {
      reactor = std::make_unique<orb::TcpListener>("127.0.0.1", 0, echo);
      port = reactor->port();
    } else {
      threaded = std::make_unique<ThreadedEchoServer>(echo);
      port = threaded->port();
    }
    if (client_cpu >= 0) pin_to(client_cpu);
    fd = dial_nodelay(port);
  }

  void stop() {
    ::close(fd);
    fd = -1;
    reactor.reset();
    threaded.reset();
    (void)sched_setaffinity(0, sizeof unpinned, &unpinned);
  }
};

int run_reactor_sweep(const adapt::benchjson::Options& opts) {
  const auto echo = [](const Bytes& request) -> std::optional<Bytes> { return request; };

  std::vector<adapt::benchjson::Case> cases;
  // Single client, synchronous round trips on the bench thread itself: p50
  // here is the per-RPC latency the reactor must hold within 10% of
  // thread-per-connection.
  PinnedC1 c1;
  const Bytes c1_payload(16, 0x5A);
  for (int pair = 0; pair < kC1Pairs; ++pair) {
    for (const bool use_reactor : {pair % 2 != 0, pair % 2 == 0}) {
      adapt::benchjson::Case c;
      c.name = std::string(use_reactor ? "reactor" : "threaded") + "_c1_" +
               std::to_string(pair);
      c.setup = [&c1, &echo, use_reactor] { c1.start(use_reactor, echo); };
      c.fn = [&c1, &c1_payload] {
        orb::write_frame(c1.fd, c1_payload);
        (void)orb::read_frame(c1.fd);
      };
      c.teardown = [&c1] { c1.stop(); };
      cases.push_back(std::move(c));
    }
  }

  ThreadedEchoServer threaded(echo);
  orb::TcpListener reactor("127.0.0.1", 0, echo);
  struct Sweep {
    const char* name;
    uint16_t port;
    size_t clients;
  };
  const std::vector<Sweep> sweeps = {
      {"threaded_c8", threaded.port(), 8},  {"reactor_c8", reactor.port(), 8},
      {"threaded_c64", threaded.port(), 64}, {"reactor_c64", reactor.port(), 64},
  };
  std::shared_ptr<SweepClients> clients;  // alive between setup and teardown
  for (const Sweep& sweep : sweeps) {
    // One iteration = one pipelined batch across all clients
    // (clients * kPipeline RPCs), so iteration counts are scaled down.
    const size_t n = sweep.clients;
    adapt::benchjson::Case c;
    c.name = sweep.name;
    c.setup = [&clients, sweep, n] {
      clients = std::make_shared<SweepClients>(sweep.port, n, kPipeline);
    };
    c.fn = [&clients] { clients->run_batch(); };
    c.teardown = [&clients] { clients.reset(); };
    c.warmup = 10;
    c.iters = opts.quick ? (n >= 64 ? 30 : 60) : (n >= 64 ? 100 : 200);
    cases.push_back(std::move(c));
  }
  const int rc = adapt::benchjson::run_json_cases(opts, "reactor", cases);
  reactor.stop();
  threaded.stop();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool reactor_sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--reactor") reactor_sweep = true;
  }
  if (const auto opts = adapt::benchjson::parse_json_mode(argc, argv)) {
    if (reactor_sweep) return run_reactor_sweep(*opts);
    auto& s = Setup::instance();
    orb::TcpConnectionPool pool(5.0);
    const std::vector<adapt::benchjson::Case> cases = {
        {.name = "raw_pooled_roundtrip",
         .fn = [&] { pool.call(s.listener->endpoint(), s.raw_request); }},
        {.name = "invoke_small",
         .fn = [&] { s.client->invoke(s.ref, "echo", {Value(42.0)}); }},
        {.name = "invoke_small_notrace",
         .fn = [&] { s.client->invoke(s.ref, "echo", {Value(42.0)}); },
         .setup = [&] { s.client->tracer().set_enabled(false); },
         .teardown = [&] { s.client->tracer().set_enabled(true); }},
        {.name = "ping", .fn = [&] { s.client->ping(s.ref); }},
    };
    return adapt::benchjson::run_json_cases(*opts, "transport", cases);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
