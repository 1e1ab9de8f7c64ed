// Server-side admission control and client-side retry budgets.
//
// The paper's premise is applications that adapt to degraded conditions, but
// every resilience mechanism before this layer lived on the client
// (retry/backoff, breakers, hedging) while the server accepted unbounded work
// and executed requests whose callers had long given up. This header adds the
// server half:
//
//  - AdmissionController: a bounded in-flight dispatch limit plus a FIFO
//    pending queue shed by queue *delay* (a CoDel-style control law on the
//    sojourn time of admitted requests), with a criticality bypass so
//    control-plane traffic (heartbeats, breaker probes, trader lookups)
//    survives overload.
//  - CodelLaw: the pure control law, separated out so tests can drive it
//    with a fake clock.
//  - RetryBudget: the matching client-side damper — a per-endpoint token
//    bucket that caps the ratio of retries/hedges to first attempts so a
//    server brown-out cannot be amplified into a retry storm.
//  - DispatchDeadlineScope: thread-local remaining-budget bookkeeping so
//    nested invokes made from inside a dispatch inherit the caller's
//    shrunken deadline automatically; CallerContext carries it (and the
//    trace context) onto helper threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"

namespace adapt::orb {

struct AdmissionConfig {
  /// Concurrent servant dispatches allowed before new arrivals queue.
  /// 0 disables admission control entirely (the default: zero behavior
  /// change for existing deployments).
  std::size_t max_in_flight = 0;
  /// Arrivals beyond this many queued waiters are shed immediately.
  std::size_t max_queue = 64;
  /// CoDel target sojourn time (seconds): queue delay below this is "good",
  /// standing delay above it for `codel_interval` starts shedding.
  double codel_target = 0.005;
  /// CoDel interval (seconds): how long delay must stay above target before
  /// the first shed; successive sheds tighten as interval/sqrt(count).
  double codel_interval = 0.1;
  /// Hard cap on time spent queued before a request is shed regardless of
  /// the control law (bounds reactor-worker occupancy).
  double max_queue_wait = 1.0;
};

/// CoDel-style shedding decision. Call should_shed(now, sojourn) each time a
/// request is dequeued for admission; `true` means shed it instead. Pure
/// logic over caller-supplied timestamps (seconds on any steady clock) so it
/// is trivially testable. Not thread-safe; the controller guards it.
class CodelLaw {
 public:
  CodelLaw(double target, double interval) : target_(target), interval_(interval) {}

  bool should_shed(double now, double sojourn);

  [[nodiscard]] bool dropping() const { return dropping_; }

 private:
  double target_;
  double interval_;
  double first_above_ = 0.0;  // when sojourn first stayed above target (+interval)
  bool dropping_ = false;
  double drop_next_ = 0.0;
  uint32_t drop_count_ = 0;
};

/// Bounded-concurrency gate in front of servant dispatch. Callers block in
/// acquire() until admitted or shed; every Admitted acquire must be paired
/// with release(). Criticality bypasses both the limit and the queue — the
/// point of admission control is to keep the control plane alive, so control
/// traffic is never the thing we shed.
class AdmissionController {
 public:
  enum class Decision : uint8_t {
    Admitted,  // caller may dispatch; must release() afterwards
    Shed,      // overload shed (queue full, CoDel, max wait, or closed)
    Expired,   // the request's own deadline lapsed while queued
  };

  explicit AdmissionController(const AdmissionConfig& cfg);

  /// Blocks until a dispatch slot frees or the request is rejected.
  /// `deadline_remaining` is the request's remaining budget in seconds
  /// (<= 0 = no deadline). Critical requests are admitted immediately, even
  /// beyond max_in_flight.
  Decision acquire(bool critical, double deadline_remaining);

  void release();

  /// Sheds every queued waiter and makes subsequent acquires return Shed.
  /// Must be called before joining threads that may be blocked in acquire()
  /// (the ORB closes admission before stopping its listener).
  void close();

  [[nodiscard]] bool enabled() const { return cfg_.max_in_flight > 0; }
  [[nodiscard]] const AdmissionConfig& config() const { return cfg_; }

  // Gauges / counters for obs and orb.overload().
  [[nodiscard]] std::size_t in_flight() const;
  [[nodiscard]] std::size_t queued() const;
  [[nodiscard]] uint64_t admitted() const;
  [[nodiscard]] uint64_t shed() const;
  [[nodiscard]] uint64_t expired() const;

 private:
  void remove_ticket(uint64_t ticket);

  AdmissionConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  CodelLaw codel_;
  std::deque<uint64_t> queue_;  // FIFO of waiter tickets
  uint64_t next_ticket_ = 1;
  std::size_t in_flight_ = 0;
  uint64_t admitted_ = 0;
  uint64_t shed_ = 0;
  uint64_t expired_ = 0;
  bool closed_ = false;
};

/// Per-endpoint token bucket capping retry/hedge amplification (gRPC
/// retry-throttling analog). Every first attempt earns `ratio` tokens (up to
/// `cap`); every retry or hedge spends one. Buckets start full so isolated
/// failures retry freely; sustained failure drains the bucket and retries
/// stop until fresh attempts re-earn it. With ratio 0.1 the steady-state
/// retry rate is capped at ~10% of offered load per endpoint.
class RetryBudget {
 public:
  struct Config {
    double ratio = 0.1;
    double cap = 10.0;
  };

  RetryBudget() = default;
  explicit RetryBudget(Config cfg) : cfg_(cfg) {}

  /// Records a first attempt against `endpoint` (earns tokens).
  void on_attempt(const std::string& endpoint);

  /// Spends one token if available; false means the retry/hedge must be
  /// suppressed.
  bool try_spend(const std::string& endpoint);

  /// Current token balance (tests/metrics).
  [[nodiscard]] double tokens(const std::string& endpoint) const;

 private:
  Config cfg_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, double> buckets_;
};

/// RAII thread-local deadline for the duration of one servant dispatch.
/// Installing a scope with the request's remaining budget lets any nested
/// Orb::invoke on the same thread (in-process dispatch, SmartProxy
/// forwarding, monitor -> agent calls) clamp its own budget to what the
/// upstream caller still has.
class DispatchDeadlineScope {
 public:
  /// `remaining` is the request's remaining budget in seconds at dispatch
  /// time; <= 0 installs "no deadline" (shadowing any outer scope, since a
  /// deadline-free request owes its caller nothing).
  explicit DispatchDeadlineScope(double remaining);
  ~DispatchDeadlineScope();

  DispatchDeadlineScope(const DispatchDeadlineScope&) = delete;
  DispatchDeadlineScope& operator=(const DispatchDeadlineScope&) = delete;

 private:
  double prev_;  // previous absolute expiry (0 = none)
};

/// Remaining seconds of the innermost dispatch deadline on this thread;
/// nullopt when no deadline-carrying dispatch is in scope. Zero or negative
/// when the budget has already lapsed.
std::optional<double> current_dispatch_remaining();

/// The calling thread's trace context and dispatch deadline, captured where
/// work is handed to a helper thread (std::async) and installed there by
/// run(): the work's spans join the caller's trace, and its invokes get only
/// what is left of the caller's budget — none if it has lapsed.
class CallerContext {
 public:
  CallerContext();

  template <typename Fn>
  decltype(auto) run(Fn&& fn) const {
    const Installed installed(*this);
    return std::forward<Fn>(fn)();
  }

 private:
  class Installed {
   public:
    explicit Installed(const CallerContext& caller);
    ~Installed();
    Installed(const Installed&) = delete;
    Installed& operator=(const Installed&) = delete;

   private:
    obs::ContextGuard trace_;
    double prev_expiry_;
  };

  obs::TraceContext trace_;
  double expiry_;  // absolute steady-clock expiry; 0 = no deadline
};

}  // namespace adapt::orb
