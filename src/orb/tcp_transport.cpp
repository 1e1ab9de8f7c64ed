#include "orb/tcp_transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "base/logging.h"

namespace adapt::orb {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  const int err = errno;
  if (err == EAGAIN || err == EWOULDBLOCK) {
    throw TimeoutError(what + ": timed out");
  }
  throw TransportError(what + ": " + std::strerror(err));
}

void set_timeouts(int fd, double seconds) {
  const timeval tv = clamp_socket_timeout(seconds);
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void write_all(int fd, const uint8_t* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<size_t>(rc);
  }
}

/// Reads exactly n bytes. Returns false on clean EOF at offset 0. When
/// `consumed` is non-null it tracks bytes read even when throwing.
bool read_all(int fd, uint8_t* data, size_t n, size_t* consumed = nullptr) {
  size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::recv(fd, data + got, n - got, 0);
    if (rc == 0) {
      if (got == 0) return false;
      throw TransportError("connection closed mid-frame");
    }
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    got += static_cast<size_t>(rc);
    if (consumed != nullptr) *consumed += static_cast<size_t>(rc);
  }
  return true;
}

double steady_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True when an idle pooled fd is still usable: no EOF, no pending error,
/// and no stray unread bytes (those would desynchronize the framing). A
/// restarted peer's FIN/RST is detected here, before any request is
/// written on the dead socket.
bool idle_connection_usable(int fd) {
  uint8_t probe = 0;
  const ssize_t rc = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (rc >= 0) return false;  // 0: peer closed; >0: leftover bytes
  return errno == EAGAIN || errno == EWOULDBLOCK;
}

}  // namespace

timeval clamp_socket_timeout(double seconds) {
  // Floor: SO_RCVTIMEO/SO_SNDTIMEO treat {0,0} as "no timeout", so a budget
  // that truncates to zero (e.g. deadline - now() ~ 1e-7s) would block
  // indefinitely instead of expiring immediately. Ceiling: keep the time_t
  // cast well-defined for absurd budgets (and NaN lands on the floor).
  constexpr double kMinSeconds = 1e-6;
  constexpr double kMaxSeconds = 1e8;  // ~3 years
  if (!(seconds >= kMinSeconds)) seconds = kMinSeconds;
  if (seconds > kMaxSeconds) seconds = kMaxSeconds;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  return tv;
}

TcpAddress TcpAddress::parse(const std::string& endpoint) {
  const std::string prefix = "tcp://";
  if (endpoint.rfind(prefix, 0) != 0) {
    throw TransportError("not a tcp endpoint: " + endpoint);
  }
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon < prefix.size()) {
    throw TransportError("missing port in endpoint: " + endpoint);
  }
  TcpAddress addr;
  addr.host = endpoint.substr(prefix.size(), colon - prefix.size());
  const std::string port_text = endpoint.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || port < 1 || port > 65535) {
    throw TransportError("bad port in endpoint: " + endpoint);
  }
  addr.port = static_cast<uint16_t>(port);
  if (addr.host.empty()) throw TransportError("missing host in endpoint: " + endpoint);
  return addr;
}

size_t write_frame(int fd, const Bytes& payload) {
  ByteWriter w;
  w.u32(static_cast<uint32_t>(payload.size()));
  w.raw(payload.data(), payload.size());
  write_all(fd, w.bytes().data(), w.size());
  return w.size();
}

std::optional<Bytes> read_frame(int fd, size_t* bytes_consumed) {
  uint8_t len_buf[4];
  if (!read_all(fd, len_buf, 4, bytes_consumed)) return std::nullopt;
  ByteReader lr(len_buf, 4);
  const uint32_t len = lr.u32();
  if (len > kMaxFrameSize) {
    throw TransportError("frame too large: " + std::to_string(len));
  }
  Bytes payload(len);
  if (len > 0 && !read_all(fd, payload.data(), len, bytes_consumed)) {
    throw TransportError("connection closed mid-frame");
  }
  return payload;
}

// ---- TcpListener --------------------------------------------------------
//
// Thin facade over the epoll reactor (orb/reactor.h), which owns the listen
// socket, the worker pool and every connection's frame-reassembly state.

TcpListener::TcpListener(const std::string& host, uint16_t port, Handler handler)
    : TcpListener(host, port, std::move(handler), ReactorConfig{}) {}

TcpListener::TcpListener(const std::string& host, uint16_t port, Handler handler,
                         ReactorConfig config)
    : reactor_(std::make_unique<EpollReactor>(host, port, std::move(handler),
                                              config)) {}

TcpListener::~TcpListener() { stop(); }

void TcpListener::stop() { reactor_->stop(); }

size_t TcpListener::live_connections() const { return reactor_->live_connections(); }

size_t TcpListener::worker_count() const { return reactor_->worker_count(); }

// ---- TcpConnectionPool ----------------------------------------------------

TcpConnectionPool::TcpConnectionPool(double timeout_seconds)
    : TcpConnectionPool([timeout_seconds] {
        PoolConfig config;
        config.timeout = timeout_seconds;
        return config;
      }(), nullptr) {}

TcpConnectionPool::TcpConnectionPool(PoolConfig config,
                                     std::shared_ptr<OrbStatsCounters> stats)
    : config_(std::move(config)), stats_(std::move(stats)) {
  if (!config_.now) config_.now = steady_now;
}

TcpConnectionPool::~TcpConnectionPool() { clear(); }

void TcpConnectionPool::clear() {
  std::scoped_lock lock(mu_);
  for (auto& [endpoint, conns] : idle_) {
    for (const IdleConn& conn : conns) ::close(conn.fd);
  }
  idle_.clear();
}

size_t TcpConnectionPool::reap_idle() {
  std::vector<int> to_close;
  {
    std::scoped_lock lock(mu_);
    const double cutoff = config_.now() - config_.max_idle_age;
    for (auto& [endpoint, conns] : idle_) {
      auto fresh_end = std::partition(conns.begin(), conns.end(),
                                      [&](const IdleConn& c) { return c.since >= cutoff; });
      for (auto it = fresh_end; it != conns.end(); ++it) to_close.push_back(it->fd);
      conns.erase(fresh_end, conns.end());
    }
  }
  for (const int fd : to_close) ::close(fd);
  return to_close.size();
}

size_t TcpConnectionPool::idle_count(const std::string& endpoint) const {
  std::scoped_lock lock(mu_);
  const auto it = idle_.find(endpoint);
  return it == idle_.end() ? 0 : it->second.size();
}

int TcpConnectionPool::dial(const TcpAddress& addr, double timeout) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port_text = std::to_string(addr.port);
  const int rc = ::getaddrinfo(addr.host.c_str(), port_text.c_str(), &hints, &result);
  if (rc != 0) {
    throw TransportError("resolve " + addr.host + ": " + gai_strerror(rc));
  }
  int fd = -1;
  std::string last_error = "no addresses";
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    set_timeouts(fd, timeout);
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last_error = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    throw TransportError("connect " + addr.host + ":" + port_text + ": " + last_error);
  }
  set_nodelay(fd);
  return fd;
}

TcpConnectionPool::Checkout TcpConnectionPool::checkout(const std::string& endpoint,
                                                        double timeout) {
  int fd = -1;
  std::vector<int> stale;
  {
    std::scoped_lock lock(mu_);
    auto& conns = idle_[endpoint];
    while (!conns.empty()) {
      const int candidate = conns.back().fd;
      conns.pop_back();
      if (idle_connection_usable(candidate)) {
        fd = candidate;
        break;
      }
      stale.push_back(candidate);
    }
  }
  for (const int dead : stale) {
    ::close(dead);
    // Each one is a connection we silently replace with a fresh dial.
    if (stats_) stats_->add_redial();
  }
  if (!stale.empty()) {
    log_debug(stale.size(), " stale pooled connection(s) to ", endpoint, " discarded");
  }
  if (fd >= 0) {
    if (stats_) stats_->add_connection_reused();
    return Checkout{fd, /*reused=*/true};
  }
  fd = dial(TcpAddress::parse(endpoint), timeout);
  if (stats_) stats_->add_connection_opened();
  return Checkout{fd, /*reused=*/false};
}

void TcpConnectionPool::checkin(const std::string& endpoint, int fd) {
  {
    std::scoped_lock lock(mu_);
    auto& conns = idle_[endpoint];
    if (conns.size() < config_.max_idle_per_endpoint) {
      conns.push_back(IdleConn{fd, config_.now()});
      return;
    }
  }
  ::close(fd);  // pool full for this endpoint
}

size_t TcpConnectionPool::flush_endpoint(const std::string& endpoint) {
  std::vector<IdleConn> victims;
  {
    std::scoped_lock lock(mu_);
    const auto it = idle_.find(endpoint);
    if (it == idle_.end()) return 0;
    victims.swap(it->second);
  }
  for (const IdleConn& conn : victims) ::close(conn.fd);
  return victims.size();
}

void TcpConnectionPool::arm(int fd, int option, double deadline,
                            const std::string& endpoint) const {
  const double left = deadline - config_.now();
  if (left <= 0.0) throw TimeoutError("call to " + endpoint + " timed out");
  const timeval tv = clamp_socket_timeout(left);
  (void)setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
}

size_t TcpConnectionPool::transfer(int fd, uint8_t* data, size_t n, bool sending, bool first,
                                   double deadline, const std::string& endpoint) const {
  // The first syscall of a frame blocks under the timeout armed before it.
  // A later one first tries without blocking, so a frame that is already
  // there (or fits the send buffer) costs no extra syscall; only when it
  // would block is the socket timeout re-armed with what is left of the
  // deadline. Per-syscall SO_RCVTIMEO alone would let a peer trickling one
  // byte at a time restart the clock with every fragment.
  int flags = sending ? MSG_NOSIGNAL : 0;
  if (!first) flags |= MSG_DONTWAIT;
  while (true) {
    const ssize_t rc = sending ? ::send(fd, data, n, flags) : ::recv(fd, data, n, flags);
    if (rc >= 0) return static_cast<size_t>(rc);
    if (errno == EINTR) continue;
    if ((flags & MSG_DONTWAIT) == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      throw_errno(sending ? "send" : "recv");
    }
    arm(fd, sending ? SO_SNDTIMEO : SO_RCVTIMEO, deadline, endpoint);
    flags &= ~MSG_DONTWAIT;
  }
}

size_t TcpConnectionPool::write_request(int fd, const Bytes& payload, double deadline,
                                        const std::string& endpoint) const {
  ByteWriter w(4 + payload.size());
  w.u32(static_cast<uint32_t>(payload.size()));
  w.raw(payload.data(), payload.size());
  Bytes frame = w.take();
  for (size_t sent = 0; sent < frame.size();) {
    sent += transfer(fd, frame.data() + sent, frame.size() - sent, /*sending=*/true,
                     /*first=*/sent == 0, deadline, endpoint);
  }
  return frame.size();
}

std::optional<Bytes> TcpConnectionPool::read_reply(int fd, double deadline,
                                                   const std::string& endpoint,
                                                   size_t& consumed, bool& overread) const {
  // One recv takes the length prefix together with whatever payload has
  // arrived; a reply that arrived whole costs that single syscall.
  uint8_t head[8192];
  size_t got = 0;
  while (got < 4) {
    const size_t rc = transfer(fd, head + got, sizeof head - got, /*sending=*/false,
                               /*first=*/got == 0, deadline, endpoint);
    if (rc == 0) {
      if (got == 0) return std::nullopt;
      throw TransportError("connection closed mid-frame");
    }
    got += rc;
    consumed += rc;
  }
  ByteReader lr(head, 4);
  const uint32_t len = lr.u32();
  if (len > kMaxFrameSize) {
    throw TransportError("frame too large: " + std::to_string(len));
  }
  Bytes payload(len);
  const size_t have = std::min<size_t>(got - 4, len);
  std::memcpy(payload.data(), head + 4, have);
  // Bytes past the frame answer no request; the reply stands, but the
  // connection must not go back to the pool.
  overread = got - 4 > len;
  for (size_t off = have; off < len;) {
    const size_t rc = transfer(fd, payload.data() + off, len - off, /*sending=*/false,
                               /*first=*/false, deadline, endpoint);
    if (rc == 0) throw TransportError("connection closed mid-frame");
    off += rc;
    consumed += rc;
  }
  return payload;
}

Bytes TcpConnectionPool::call(const std::string& endpoint, const Bytes& request,
                              double timeout, bool idempotent) {
  return *exchange(endpoint, request, timeout, idempotent, /*oneway=*/false);
}

void TcpConnectionPool::send(const std::string& endpoint, const Bytes& request,
                             double timeout) {
  // A failed write delivered no complete frame, so the redial below is safe
  // even though a oneway request is never treated as idempotent.
  exchange(endpoint, request, timeout, /*idempotent=*/false, /*oneway=*/true);
}

std::optional<Bytes> TcpConnectionPool::exchange(const std::string& endpoint,
                                                 const Bytes& request, double timeout,
                                                 bool idempotent, bool oneway) {
  reap_idle();
  if (timeout <= 0.0) timeout = config_.timeout;
  // Absolute deadline for the whole call: a redial continues the original
  // budget instead of restarting it.
  const double deadline = config_.now() + timeout;
  for (bool redialed = false;; redialed = true) {
    const double dial_budget = deadline - config_.now();
    if (dial_budget <= 0.0) {
      throw TimeoutError("call to " + endpoint + " timed out");
    }
    const Checkout co = checkout(endpoint, dial_budget);
    set_timeouts(co.fd, dial_budget);
    size_t reply_bytes = 0;
    bool sent_fully = false;
    // Every exit from the attempt below funnels through exactly one
    // ::close(co.fd) — a second close could hit a recycled fd number owned
    // by another thread.
    try {
      const size_t sent = write_request(co.fd, request, deadline, endpoint);
      sent_fully = true;
      if (stats_) stats_->add_bytes_sent(sent);
      if (oneway) {
        checkin(endpoint, co.fd);
        return std::nullopt;
      }
      arm(co.fd, SO_RCVTIMEO, deadline, endpoint);
      bool overread = false;
      std::optional<Bytes> reply = read_reply(co.fd, deadline, endpoint, reply_bytes, overread);
      if (reply) {
        if (stats_) stats_->add_bytes_received(reply_bytes);
        if (overread) {
          ::close(co.fd);
        } else {
          checkin(endpoint, co.fd);
        }
        return reply;
      }
      // Clean EOF before any reply byte: the peer saw the full request
      // before closing, so it may have executed it.
      throw TransportError("connection closed before reply", /*maybe_executed=*/true);
    } catch (TimeoutError& e) {
      // The peer is alive but slow; the deadline is spent either way. A
      // post-write timeout leaves the request possibly executed remotely.
      if (sent_fully) e.set_maybe_executed(true);
      if (stats_) stats_->add_bytes_received(reply_bytes);
      ::close(co.fd);
      throw;
    } catch (TransportError& e) {
      if (sent_fully) e.set_maybe_executed(true);
      if (stats_) stats_->add_bytes_received(reply_bytes);
      ::close(co.fd);
      // Redial once, on a pooled connection only: a fresh dial's failure is
      // a real signal, not pool staleness. Never once a byte of the reply
      // was consumed — a torn reply must surface, not be re-requested.
      if (!co.reused || redialed || reply_bytes > 0 ||
          !may_reissue(Reissue::Failover, idempotent, &e)) {
        throw;
      }
      if (stats_) stats_->add_redial();
      log_debug("stale pooled connection to ", endpoint, ", redialing");
      // Its pooled siblings are the same vintage; make the redial (and
      // whoever checks out next) dial fresh rather than inherit them.
      flush_endpoint(endpoint);
    }
  }
}

}  // namespace adapt::orb
