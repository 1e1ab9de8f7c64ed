// Epoll reactor: the ORB's server-side serving core.
//
// Replaces the original thread-per-connection listener with a fixed worker
// pool multiplexed over one epoll instance. Connections are registered
// level-triggered (no EPOLLONESHOT, so the steady-state RPC needs no
// epoll_ctl re-arm); the kernel wakes exactly one epoll_wait-er per event,
// and a per-connection service lock makes frame reassembly and reply
// ordering single-threaded anyway: a worker that loses the try_lock simply
// drops the event, because level-triggered delivery re-surfaces anything
// still pending. Only interest-mask changes (needing EPOLLOUT for queued
// output, shedding EPOLLIN at EOF) pay an epoll_ctl.
//
// Per readiness event a worker: flushes pending output, drains the socket
// into the connection's staging buffer (non-blocking), carves complete
// length-prefixed frames out of it (partial prefix/payload state is carried
// across events), runs the handler on each frame in arrival order, and
// coalesces the replies into one output buffer flushed with a single send.
// Replies that do not fit the socket buffer wait in the per-connection write
// queue (bounded: a slow consumer that exceeds the cap is disconnected and
// counted) and are pushed out on EPOLLOUT.
//
// The accept path never gives up: transient failures (ECONNABORTED, EMFILE,
// ENFILE, ENOBUFS, ...) count orb.accept.error and back off exponentially
// (bounded) before the listen socket is re-armed, so fd pressure degrades
// accept latency instead of permanently deafening the server.
//
// A supervisor thread re-arms the listen socket when an accept backoff
// expires and guards liveness: when every worker is blocked inside a handler
// (e.g. nested RPCs back into this process) and no event has been processed
// for a tick, it grows the pool (bounded by max_workers) so queued requests
// cannot deadlock behind blocked handlers.
//
// Observability (process-default obs registry):
//   orb.accept.error            counter  transient/unexpected accept failures
//   orb.conn.overrun            counter  slow consumers disconnected at the cap
//   orb.reactor.accepted        counter  connections accepted
//   orb.reactor.frames          counter  complete request frames dispatched
//   orb.reactor.connections     gauge    open connections (all reactors)
//   orb.reactor.workers         gauge    live workers (all reactors)
//   orb.reactor.worker.spawned  counter  liveness spawns beyond the core pool
//   orb.reactor.dispatch_ns     histogram  frame-complete -> reply-queued
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/bytes.h"

namespace adapt::orb {

struct ReactorConfig {
  /// Core worker threads; 0 picks min(4, max(2, hardware_concurrency)).
  size_t workers = 0;
  /// Liveness ceiling: the supervisor may grow the pool up to this many
  /// workers when all of them sit blocked inside handlers.
  size_t max_workers = 64;
  /// Per-connection pending-output cap, bytes. Exceeding it disconnects the
  /// (slow) consumer instead of buffering without bound.
  size_t write_queue_cap = 8u << 20;
};

class EpollReactor {
 public:
  /// Consumes a request payload, returns the reply payload (nullopt for
  /// oneway). Runs on worker threads; must be thread-safe.
  using Handler = std::function<std::optional<Bytes>(const Bytes&)>;

  /// Binds, listens and starts the worker pool. Port 0 = ephemeral.
  EpollReactor(const std::string& host, uint16_t port, Handler handler,
               ReactorConfig config = {});
  ~EpollReactor();
  EpollReactor(const EpollReactor&) = delete;
  EpollReactor& operator=(const EpollReactor&) = delete;

  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }

  /// Stops accepting, joins every worker (in-flight handlers finish and
  /// their replies are flushed), then closes all connections.
  void stop();

  /// Open connections (diagnostics/tests).
  [[nodiscard]] size_t live_connections() const;
  /// Live worker threads, including liveness spawns (diagnostics/tests).
  [[nodiscard]] size_t worker_count() const;

 private:
  /// Per-connection state. All fields besides fd/id are touched only under
  /// serve_mu, so they need no per-field synchronization.
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    std::mutex serve_mu;
    std::vector<uint8_t> in;   // staged bytes: partial frames span events
    std::vector<uint8_t> out;  // coalesced un-flushed replies
    size_t out_off = 0;        // flushed prefix of `out`
    bool read_eof = false;     // peer half-closed; flush then close
    bool closed = false;       // fd released; late event holders must bail
    uint32_t armed = 0;        // current epoll interest mask
  };

  void worker_loop();
  void supervisor_loop();
  void handle_accept();
  void service(const std::shared_ptr<Conn>& conn, uint32_t events);
  /// Drains readable bytes and dispatches complete frames; returns false
  /// when the connection must close.
  bool drain_input(Conn& conn);
  /// Parses complete frames out of conn.in and runs the handler on each.
  bool dispatch_frames(Conn& conn);
  /// Non-blocking flush of conn.out; returns false on a fatal write error.
  bool flush_output(Conn& conn);
  /// Reconciles the epoll interest mask with the connection's needs; a
  /// syscall only when the mask actually changes.
  void rearm(Conn& conn);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void arm_listen();
  void spawn_worker();

  Handler handler_;
  ReactorConfig config_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd; written once at stop and left readable
  uint16_t port_ = 0;
  std::string endpoint_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex conns_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_conn_id_{16};

  mutable std::mutex workers_mu_;
  std::vector<std::thread> workers_;
  std::thread supervisor_;
  std::mutex supervisor_mu_;
  std::condition_variable supervisor_cv_;

  /// Liveness accounting: workers parked in epoll_wait, and a tick that
  /// advances whenever any worker makes progress.
  std::atomic<size_t> idle_workers_{0};
  std::atomic<uint64_t> progress_{0};

  /// Accept backoff: consecutive-failure streak and the steady-clock time
  /// (seconds) after which the supervisor re-arms the listen socket; 0 when
  /// accepting normally.
  std::atomic<int> accept_fail_streak_{0};
  std::atomic<double> accept_rearm_at_{0.0};
};

}  // namespace adapt::orb
