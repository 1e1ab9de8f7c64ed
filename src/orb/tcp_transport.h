// TCP transport: length-prefixed frames over POSIX sockets (GIOP/IIOP analog).
//
// Server side: TcpListener serves connections on an epoll reactor (see
// orb/reactor.h) — a fixed worker pool multiplexed over one epoll instance
// instead of one OS thread per connection. Requests on a connection are
// still processed in order (connections are level-triggered, and a
// per-connection serve lock lets only one worker at a time reassemble and
// answer its frames), closed connections release their fd immediately, and
// accept failures back off instead of killing the accept path.
// Client side: TcpConnectionPool keeps idle connections per endpoint
// (bounded per endpoint, age-reaped) and checks them out for the duration
// of one call. Checkout probes each pooled fd with a non-blocking peek, so
// a connection whose peer already closed (server restart) is discarded and
// replaced by a fresh dial *before* the request is written — safe for any
// operation. A failure after the request was fully written may mean the
// peer executed it, so that redial happens only for idempotent calls, and
// never after a byte of the reply was consumed.
#pragma once

#include <sys/time.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "base/bytes.h"
#include "orb/errors.h"
#include "orb/reactor.h"
#include "orb/stats.h"

namespace adapt::orb {

/// Parses "tcp://host:port"; throws TransportError on malformed endpoints.
struct TcpAddress {
  std::string host;
  uint16_t port = 0;
  static TcpAddress parse(const std::string& endpoint);
};

class TcpListener {
 public:
  /// Handler consumes a request payload and returns the reply payload, or
  /// nullopt when no reply should be sent (oneway). Runs on reactor worker
  /// threads; must be thread-safe.
  using Handler = EpollReactor::Handler;

  /// Binds and starts accepting. Port 0 picks an ephemeral port.
  TcpListener(const std::string& host, uint16_t port, Handler handler);
  /// Same, with explicit reactor tuning (worker pool, write-queue cap, ...).
  TcpListener(const std::string& host, uint16_t port, Handler handler,
              ReactorConfig config);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] uint16_t port() const { return reactor_->port(); }
  [[nodiscard]] const std::string& endpoint() const { return reactor_->endpoint(); }

  /// Stops accepting, lets in-flight handlers finish (their replies are
  /// flushed), joins the worker pool and closes all connections.
  void stop();

  /// Connections currently being served (diagnostics/tests).
  [[nodiscard]] size_t live_connections() const;
  /// Reactor worker threads currently live (diagnostics/tests).
  [[nodiscard]] size_t worker_count() const;

 private:
  std::unique_ptr<EpollReactor> reactor_;
};

struct PoolConfig {
  /// Default per-call budget (connect + write + read), seconds.
  double timeout = 10.0;
  /// Idle connections kept per endpoint; extra checkins are closed.
  size_t max_idle_per_endpoint = 8;
  /// Idle connections older than this are reaped on the next pool use.
  double max_idle_age = 30.0;
  /// Monotonic time source, seconds. Injectable for tests; the default
  /// reads the steady clock (socket deadlines are inherently wall-clock,
  /// unlike the simulation's virtual time).
  std::function<double()> now;
};

class TcpConnectionPool {
 public:
  /// `timeout_seconds` bounds connect and per-call read/write.
  explicit TcpConnectionPool(double timeout_seconds);
  TcpConnectionPool(PoolConfig config, std::shared_ptr<OrbStatsCounters> stats);
  ~TcpConnectionPool();
  TcpConnectionPool(const TcpConnectionPool&) = delete;
  TcpConnectionPool& operator=(const TcpConnectionPool&) = delete;

  /// Round-trip: sends one frame, waits for one reply frame. `timeout`
  /// overrides the pool default for this call (<= 0 uses the default) and
  /// acts as an absolute deadline: connect, send and recv each get only
  /// what remains of it, including across a redial. Every send/recv after
  /// the first of a frame is re-armed with what is left, so a peer
  /// trickling bytes cannot stretch the call past it (TimeoutError).
  /// `idempotent` gates the post-write redial: when false, a request that
  /// was fully written is never re-sent (the peer may have executed it);
  /// checkout-time stale detection still applies.
  Bytes call(const std::string& endpoint, const Bytes& request, double timeout = 0.0,
             bool idempotent = true);

  /// Fire-and-forget: the same attempt loop as call(), with the connection
  /// checked back in right after the write.
  void send(const std::string& endpoint, const Bytes& request, double timeout = 0.0);

  /// Closes all pooled connections.
  void clear();

  /// Closes idle connections older than max_idle_age; returns how many.
  size_t reap_idle();

  /// Idle connections currently pooled for `endpoint` (diagnostics/tests).
  [[nodiscard]] size_t idle_count(const std::string& endpoint) const;

 private:
  struct IdleConn {
    int fd = -1;
    double since = 0.0;  // pool-clock time of checkin
  };
  struct Checkout {
    int fd = -1;
    bool reused = false;  // came from the idle pool (stale-redial candidate)
  };

  Checkout checkout(const std::string& endpoint, double timeout);
  void checkin(const std::string& endpoint, int fd);
  /// Closes every idle connection pooled for `endpoint`; returns how many.
  /// Used when a redial proved the endpoint's pooled siblings suspect.
  size_t flush_endpoint(const std::string& endpoint);
  static int dial(const TcpAddress& addr, double timeout);

  /// The attempt loop behind call() and send(); nullopt for a oneway.
  std::optional<Bytes> exchange(const std::string& endpoint, const Bytes& request,
                                double timeout, bool idempotent, bool oneway);
  /// Arms socket timeout `option` with what is left before `deadline`;
  /// throws TimeoutError when nothing is.
  void arm(int fd, int option, double deadline, const std::string& endpoint) const;
  /// One send/recv of a frame; returns the bytes moved (0: peer closed).
  size_t transfer(int fd, uint8_t* data, size_t n, bool sending, bool first,
                  double deadline, const std::string& endpoint) const;
  /// Deadline-bounded frame I/O of one attempt. read_reply returns nullopt
  /// on a clean close before any byte, adds every byte read to `consumed`
  /// (error paths included) and sets `overread` when the peer sent more
  /// than the frame.
  size_t write_request(int fd, const Bytes& payload, double deadline,
                       const std::string& endpoint) const;
  std::optional<Bytes> read_reply(int fd, double deadline, const std::string& endpoint,
                                  size_t& consumed, bool& overread) const;

  PoolConfig config_;
  std::shared_ptr<OrbStatsCounters> stats_;  // may be null
  mutable std::mutex mu_;
  std::map<std::string, std::vector<IdleConn>> idle_;
};

/// Converts a per-call budget in seconds to the timeval handed to
/// SO_RCVTIMEO/SO_SNDTIMEO. Clamped to [1µs, ~3 years]: a tiny positive
/// budget must not truncate to {0,0} — that *disables* the socket timeout
/// and would turn an almost-expired deadline into an indefinite block — and
/// a huge budget must not overflow time_t. Exposed for tests.
timeval clamp_socket_timeout(double seconds);

/// Frame I/O shared by both sides: u32 length prefix + payload. Returns the
/// number of bytes written (payload + prefix).
size_t write_frame(int fd, const Bytes& payload);
/// Reads one frame; returns nullopt on orderly peer close at a frame
/// boundary; throws TransportError/TimeoutError otherwise. When
/// `bytes_consumed` is non-null it accumulates every byte read off the
/// socket, including on the error paths — callers use it to decide whether
/// a retry could double-deliver.
std::optional<Bytes> read_frame(int fd, size_t* bytes_consumed = nullptr);

/// Maximum accepted frame size (64 MiB) — guards against corrupt prefixes.
inline constexpr uint32_t kMaxFrameSize = 64u << 20;

}  // namespace adapt::orb
