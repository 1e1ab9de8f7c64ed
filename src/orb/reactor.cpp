#include "orb/reactor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "base/logging.h"
#include "obs/metrics.h"
#include "orb/errors.h"
#include "orb/tcp_transport.h"  // kMaxFrameSize

namespace adapt::orb {

namespace {

/// Reserved epoll ids; connection ids start above them.
constexpr uint64_t kWakeId = 1;
constexpr uint64_t kListenId = 2;

/// Input drained per readiness event before yielding the connection back to
/// epoll (level-triggered re-arm refires if bytes remain) — keeps one
/// flooding peer from starving the rest of the pool.
constexpr size_t kPassReadLimit = 1u << 20;
/// Pending output above this triggers an opportunistic mid-dispatch flush,
/// so a burst of large replies to a healthy consumer is not mistaken for a
/// slow one at the write-queue cap.
constexpr size_t kFlushThreshold = 256u * 1024;
/// Accept-failure backoff bounds, seconds (exponential between them).
constexpr double kAcceptBackoffMin = 0.01;
constexpr double kAcceptBackoffMax = 1.0;
constexpr int kListenBacklog = 256;

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t steady_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Process-wide reactor instruments (shared across reactors: counters are
/// monotonic, gauges carry +/- deltas). References stay valid for the
/// process lifetime.
struct ReactorMetrics {
  obs::Counter& accept_error;
  obs::Counter& overrun;
  obs::Counter& accepted;
  obs::Counter& frames;
  obs::Counter& worker_spawned;
  obs::Gauge& connections;
  obs::Gauge& workers;
  obs::Histogram& dispatch_ns;

  static ReactorMetrics& get() {
    static ReactorMetrics m{
        obs::metrics().counter("orb.accept.error"),
        obs::metrics().counter("orb.conn.overrun"),
        obs::metrics().counter("orb.reactor.accepted"),
        obs::metrics().counter("orb.reactor.frames"),
        obs::metrics().counter("orb.reactor.worker.spawned"),
        obs::metrics().gauge("orb.reactor.connections"),
        obs::metrics().gauge("orb.reactor.workers"),
        obs::metrics().histogram("orb.reactor.dispatch_ns"),
    };
    return m;
  }
};

/// Failures accept(2) reports for conditions that clear on their own:
/// aborted handshakes and fd/buffer exhaustion. Anything else is unexpected
/// but still retried with backoff — a serving socket must never go deaf.
bool transient_accept_errno(int err) {
  return err == ECONNABORTED || err == EMFILE || err == ENFILE ||
         err == ENOBUFS || err == ENOMEM || err == EPROTO;
}

}  // namespace

EpollReactor::EpollReactor(const std::string& host, uint16_t port, Handler handler,
                           ReactorConfig config)
    : handler_(std::move(handler)), config_(config) {
  if (config_.workers == 0) {
    // One worker per core, capped: extra workers on few cores only add
    // wake-up alternation (each event then lands on a cache-cold thread).
    // Handlers that block (nested RPCs) are covered by supervisor growth,
    // not by oversizing the core pool.
    const size_t hw = std::thread::hardware_concurrency();
    config_.workers = std::clamp<size_t>(hw, 1, 4);
  }
  config_.max_workers = std::max(config_.max_workers, config_.workers);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw TransportError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  auto fail = [this](const std::string& what) -> TransportError {
    const std::string msg = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    return TransportError(msg);
  };

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw TransportError("bad listen host: " + host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    throw fail("bind " + host);
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) throw fail("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  (void)::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  endpoint_ = "tcp://" + host + ":" + std::to_string(port_);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw fail("eventfd");

  // The wake eventfd is level-triggered and never drained: once stop()
  // writes it, every epoll_wait returns immediately until the pool exits.
  epoll_event wake_ev{};
  wake_ev.events = EPOLLIN;
  wake_ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_ev) < 0) {
    throw fail("epoll_ctl wake");
  }
  epoll_event listen_ev{};
  listen_ev.events = EPOLLIN | EPOLLONESHOT;
  listen_ev.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &listen_ev) < 0) {
    throw fail("epoll_ctl listen");
  }

  try {
    for (size_t i = 0; i < config_.workers; ++i) spawn_worker();
    supervisor_ = std::thread([this] { supervisor_loop(); });
  } catch (...) {
    stop();
    throw;
  }
}

EpollReactor::~EpollReactor() { stop(); }

void EpollReactor::spawn_worker() {
  std::scoped_lock lock(workers_mu_);
  workers_.emplace_back([this] {
    ReactorMetrics::get().workers.add(1.0);
    worker_loop();
    ReactorMetrics::get().workers.add(-1.0);
  });
}

size_t EpollReactor::worker_count() const {
  std::scoped_lock lock(workers_mu_);
  return workers_.size();
}

size_t EpollReactor::live_connections() const {
  std::scoped_lock lock(conns_mu_);
  return conns_.size();
}

void EpollReactor::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t rc = ::write(wake_fd_, &one, sizeof one);
  supervisor_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
  // The supervisor is gone, so the worker set is frozen; joining waits for
  // in-flight handlers to finish and flush their replies.
  std::vector<std::thread> workers;
  {
    std::scoped_lock lock(workers_mu_);
    workers.swap(workers_);
  }
  for (auto& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns;
  {
    std::scoped_lock lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& [id, conn] : conns) {
    ::close(conn->fd);
    ReactorMetrics::get().connections.add(-1.0);
  }
  ::close(listen_fd_);
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EpollReactor::arm_listen() {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev) < 0 && !stopping_) {
    log_warn("reactor: re-arm listen failed: ", std::strerror(errno));
  }
}

void EpollReactor::worker_loop() {
  // maxevents=1 is load-bearing: a batched epoll_wait would hand one worker
  // several connections' events at once, serializing independent connections
  // behind each other (and behind blocking handlers) while the rest of the
  // pool sees an empty ready list. One event per wait makes concurrent
  // readiness fan out across workers — level-triggered fds re-queue at the
  // tail of the ready list after delivery, so waiters rotate through it.
  epoll_event event;
  while (!stopping_.load(std::memory_order_acquire)) {
    idle_workers_.fetch_add(1, std::memory_order_relaxed);
    const int n = ::epoll_wait(epoll_fd_, &event, 1, -1);
    idle_workers_.fetch_sub(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: stopping
    }
    if (n == 0 || stopping_) continue;
    const uint64_t id = event.data.u64;
    if (id == kWakeId) continue;
    if (id == kListenId) {
      handle_accept();
      progress_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::shared_ptr<Conn> conn;
    {
      std::scoped_lock lock(conns_mu_);
      const auto it = conns_.find(id);
      if (it != conns_.end()) conn = it->second;
    }
    if (conn) service(conn, event.events);
  }
}

void EpollReactor::supervisor_loop() {
  uint64_t last_progress = progress_.load(std::memory_order_relaxed);
  int stalled_ticks = 0;
  std::unique_lock lock(supervisor_mu_);
  while (!stopping_) {
    supervisor_cv_.wait_for(lock, std::chrono::milliseconds(25));
    if (stopping_) return;

    // Re-arm the listen socket once an accept backoff expires.
    const double rearm_at = accept_rearm_at_.load(std::memory_order_acquire);
    if (rearm_at > 0.0 && steady_seconds() >= rearm_at) {
      accept_rearm_at_.store(0.0, std::memory_order_release);
      arm_listen();
    }

    // Liveness: every worker blocked inside a handler (idle count zero) with
    // zero progress across two ticks means queued events are stuck behind
    // blocked handlers — grow the pool so they cannot deadlock.
    const uint64_t progress = progress_.load(std::memory_order_relaxed);
    const bool stalled =
        idle_workers_.load(std::memory_order_relaxed) == 0 && progress == last_progress;
    last_progress = progress;
    stalled_ticks = stalled ? stalled_ticks + 1 : 0;
    if (stalled_ticks >= 2) {
      stalled_ticks = 0;
      bool spawned = false;
      {
        std::scoped_lock wlock(workers_mu_);
        if (!stopping_ && workers_.size() < config_.max_workers) {
          workers_.emplace_back([this] {
            ReactorMetrics::get().workers.add(1.0);
            worker_loop();
            ReactorMetrics::get().workers.add(-1.0);
          });
          spawned = true;
        }
      }
      if (spawned) {
        ReactorMetrics::get().worker_spawned.add();
        log_debug("reactor: all workers blocked, grew pool");
      }
    }
  }
}

void EpollReactor::handle_accept() {
  for (;;) {
    if (stopping_) return;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      accept_fail_streak_.store(0, std::memory_order_relaxed);
      set_nodelay(fd);
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
      {
        std::scoped_lock lock(conns_mu_);
        conns_[conn->id] = conn;
      }
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;
      conn->armed = ev.events;
      ev.data.u64 = conn->id;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
        std::scoped_lock lock(conns_mu_);
        conns_.erase(conn->id);
        ::close(fd);
        continue;
      }
      ReactorMetrics::get().accepted.add();
      ReactorMetrics::get().connections.add(1.0);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // backlog drained
    if (stopping_) return;
    // Transient fd-pressure/handshake failures — and anything unexpected —
    // must not deafen the server: count, back off (bounded exponential),
    // and let the supervisor re-arm the listen socket.
    ReactorMetrics::get().accept_error.add();
    const int streak = accept_fail_streak_.fetch_add(1, std::memory_order_relaxed);
    const double delay =
        std::min(kAcceptBackoffMax,
                 kAcceptBackoffMin * static_cast<double>(1 << std::min(streak, 7)));
    accept_rearm_at_.store(steady_seconds() + delay, std::memory_order_release);
    if (transient_accept_errno(errno)) {
      log_warn("accept failed transiently (", std::strerror(errno), "), retrying in ",
               delay, "s");
    } else {
      log_warn("accept failed unexpectedly (", std::strerror(errno), "), retrying in ",
               delay, "s");
    }
    supervisor_cv_.notify_all();
    return;  // listen stays disarmed until the backoff expires
  }
  arm_listen();
}

void EpollReactor::service(const std::shared_ptr<Conn>& conn, uint32_t events) {
  // One worker per connection at a time. Losing the race is harmless:
  // whatever readiness this event announced is level-triggered, so epoll
  // re-surfaces it after the current holder is done. Yield so the holder
  // gets the core on single-CPU machines instead of us re-polling.
  std::unique_lock serve(conn->serve_mu, std::try_to_lock);
  if (!serve.owns_lock()) {
    std::this_thread::yield();
    return;
  }
  progress_.fetch_add(1, std::memory_order_relaxed);
  // The fd may have been released (and its number reused) while this event
  // waited for the lock; touching it now would hit the wrong connection.
  if (conn->closed) return;
  bool ok = true;
  if (conn->out_off < conn->out.size()) ok = flush_output(*conn);
  if (ok && !conn->read_eof &&
      (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
    ok = drain_input(*conn);
  }
  if (ok) ok = flush_output(*conn);
  if (ok && conn->out.size() - conn->out_off > config_.write_queue_cap) {
    ReactorMetrics::get().overrun.add();
    log_warn("reactor: slow consumer exceeded write-queue cap (",
             conn->out.size() - conn->out_off, " bytes pending), disconnecting");
    ok = false;
  }
  if (!ok || (conn->read_eof && conn->out_off >= conn->out.size())) {
    if (!ok) (void)flush_output(*conn);  // best-effort: completed replies first
    close_conn(conn);
    return;
  }
  rearm(*conn);
}

bool EpollReactor::drain_input(Conn& conn) {
  uint8_t chunk[64 * 1024];
  size_t pass_read = 0;
  for (;;) {
    const ssize_t rc = ::recv(conn.fd, chunk, sizeof chunk, 0);
    if (rc > 0) {
      conn.in.insert(conn.in.end(), chunk, chunk + rc);
      pass_read += static_cast<size_t>(rc);
      if (!dispatch_frames(conn)) return false;
      // A short read almost always means the buffer is drained: skip the
      // confirming recv (it would just say EAGAIN). If more bytes did land
      // in the gap, the level-triggered re-arm refires immediately.
      if (static_cast<size_t>(rc) < sizeof chunk) return true;
      // Fairness bound: yield the connection back to epoll; level-triggered
      // re-arm refires immediately while bytes remain.
      if (pass_read >= kPassReadLimit) return true;
      continue;
    }
    if (rc == 0) {
      conn.read_eof = true;
      return true;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;  // reset / torn connection
  }
}

bool EpollReactor::dispatch_frames(Conn& conn) {
  size_t pos = 0;
  bool ok = true;
  while (ok && conn.in.size() - pos >= 4) {
    const uint8_t* p = conn.in.data() + pos;
    const uint32_t len = static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
                         static_cast<uint32_t>(p[2]) << 16 |
                         static_cast<uint32_t>(p[3]) << 24;
    if (len > kMaxFrameSize) {
      log_warn("reactor: frame too large: ", len);
      ok = false;
      break;
    }
    if (conn.in.size() - pos - 4 < len) break;  // partial frame: wait for more
    ReactorMetrics::get().frames.add();
    const uint64_t t0 = steady_ns();
    std::optional<Bytes> reply;
    try {
      const Bytes request(p + 4, p + 4 + len);
      reply = handler_(request);
    } catch (const Error& e) {
      if (!stopping_) log_debug("reactor connection error: ", e.what());
      ok = false;
    } catch (const std::exception& e) {
      // A handler bug (bad_alloc, decode failure, ...) must cost one
      // connection, not the process.
      log_warn("reactor handler failed: ", e.what());
      ok = false;
    }
    pos += 4 + len;
    if (!ok) break;
    if (reply) {
      const size_t n = reply->size();
      conn.out.reserve(conn.out.size() + 4 + n);
      conn.out.push_back(static_cast<uint8_t>(n));
      conn.out.push_back(static_cast<uint8_t>(n >> 8));
      conn.out.push_back(static_cast<uint8_t>(n >> 16));
      conn.out.push_back(static_cast<uint8_t>(n >> 24));
      conn.out.insert(conn.out.end(), reply->begin(), reply->end());
    }
    ReactorMetrics::get().dispatch_ns.record(steady_ns() - t0);
    // A burst of large replies should reach a healthy consumer, not trip
    // the slow-consumer cap: flush opportunistically mid-dispatch.
    if (conn.out.size() - conn.out_off > kFlushThreshold) {
      if (!flush_output(conn)) return false;
      if (conn.out.size() - conn.out_off > config_.write_queue_cap) {
        ReactorMetrics::get().overrun.add();
        log_warn("reactor: slow consumer exceeded write-queue cap mid-burst, "
                 "disconnecting");
        return false;
      }
    }
  }
  conn.in.erase(conn.in.begin(), conn.in.begin() + static_cast<ptrdiff_t>(pos));
  return ok;
}

bool EpollReactor::flush_output(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t rc = ::send(conn.fd, conn.out.data() + conn.out_off,
                              conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (rc > 0) {
      conn.out_off += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // peer gone
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

void EpollReactor::rearm(Conn& conn) {
  // Shedding EPOLLIN at EOF matters: a half-closed socket stays readable
  // forever, and leaving it armed level-triggered would busy-wake the pool
  // while the remaining output drains.
  uint32_t want = 0;
  if (!conn.read_eof) want |= EPOLLIN | EPOLLRDHUP;
  if (conn.out_off < conn.out.size()) want |= EPOLLOUT;
  if (want == conn.armed) return;  // steady state: no syscall
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) < 0 && !stopping_) {
    log_warn("reactor: re-arm connection failed: ", std::strerror(errno));
  }
  conn.armed = want;
}

void EpollReactor::close_conn(const std::shared_ptr<Conn>& conn) {
  {
    std::scoped_lock lock(conns_mu_);
    if (conns_.erase(conn->id) == 0) return;  // already closed by stop()
  }
  conn->closed = true;  // under serve_mu: late event holders must not touch fd
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  ReactorMetrics::get().connections.add(-1.0);
}

}  // namespace adapt::orb
