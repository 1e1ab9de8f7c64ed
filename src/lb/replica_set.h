// Replica-group load balancing: adaptive client-side spreading, circuit
// breaking and hedged requests, layered between the trader and SmartProxy.
//
// The paper's smart proxy selects *one* trader offer and rebinds only after
// a failure (§IV–V). At scale a proxy must instead spread traffic across
// every matching replica and adapt the spread continuously using the same
// monitored nonfunctional properties the trader already evaluates:
//
//   * A ReplicaSet holds every offer matching the proxy's query (not just
//     the preference winner), refreshed by a trader re-query on a jittered
//     TTL — and immediately when the healthy set thins below a low-water
//     mark. Refresh merges by provider, so a replica that stays in the
//     market keeps its learned statistics.
//   * Each Replica tracks an EWMA of observed invoke latency, an in-flight
//     count and a consecutive-failure score, fed from invoke outcomes.
//   * Selection policies are pluggable: `p2c` (power-of-two-choices on
//     EWMA latency x (in-flight + 1)), `weighted` (trader-preference-rank
//     seeded weights), `round_robin`, and `sticky` (the paper's single-bind
//     behavior, the default for wire/behavior compatibility). A custom
//     score callback — installed from adaptation strategies via the Luma
//     `lb.score` hook — overrides the policy entirely: the paper's
//     auto-adaptation loop applied to balancing itself.
//   * Robustness rides on the same layer: a per-replica circuit breaker
//     (closed → open after N consecutive failures → half-open single probe
//     after a cooldown → closed), eviction of open replicas from selection,
//     and hedged requests for idempotent operations that fire a second
//     attempt at the p95 latency budget and take the first response.
//
// Observability: `lb.pick`, `lb.breaker.open/close/probe`,
// `lb.hedge.fired/won/suppressed`, `lb.overload`, `lb.refresh`, `lb.refresh.error`,
// `lb.requery.lowwater` counters; per-set `lb.<set>.size` / `lb.<set>.healthy`
// gauges; per-replica `lb.<set>.ewma_ns.<object>` gauges; and a
// `lb.<set>.latency_ns` histogram whose p95 is the hedge trigger budget.
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/value.h"
#include "obs/metrics.h"
#include "orb/orb.h"
#include "trading/trader.h"

namespace adapt::lb {

class LbError : public Error {
 public:
  using Error::Error;
};

// ---- policies --------------------------------------------------------------

enum class Policy {
  Sticky,      // single-bind (the paper's behavior); the set is bypassed
  RoundRobin,  // cycle through healthy replicas
  P2c,         // power-of-two-choices on EWMA latency x (in-flight + 1)
  Weighted,    // weighted random, seeded from trader preference rank
};

[[nodiscard]] const char* policy_name(Policy policy);
/// Parses "sticky" | "round_robin" | "p2c" | "weighted"; throws LbError.
[[nodiscard]] Policy policy_from_name(const std::string& name);

// ---- circuit breaker -------------------------------------------------------

enum class BreakerState {
  Closed,    // healthy: selectable
  Open,      // evicted from selection until the cooldown elapses
  HalfOpen,  // cooldown over: exactly one probe request is admitted
};

[[nodiscard]] const char* breaker_state_name(BreakerState state);

struct BreakerConfig {
  /// Consecutive failures that trip the breaker open.
  int failure_threshold = 3;
  /// Seconds (on the set's clock) an open breaker waits before admitting a
  /// half-open probe.
  double open_cooldown = 5.0;
};

// ---- hedging ---------------------------------------------------------------

struct HedgeConfig {
  /// Fire a second attempt for idempotent operations when the first has not
  /// answered within the hedge budget; first response wins. Only remote
  /// (non-inproc) targets are hedged: hedging moves the attempt onto a
  /// helper thread, and in-process dispatch runs servant code that may need
  /// locks the calling thread holds (a ScriptServant's engine during
  /// `infra.deploy`-style scripts would deadlock) with no timeout to bail
  /// it out — remote calls are always bounded by the request timeout.
  bool enabled = false;
  /// Bounds on the hedge trigger budget, seconds. The budget itself is the
  /// p95 of the set's observed latencies, clamped into [min_delay, max_delay].
  double min_delay = 0.0005;
  double max_delay = 1.0;
};

// ---- replica ---------------------------------------------------------------

/// Immutable view of one replica's live statistics (stats surface, custom
/// score callbacks, tests).
struct ReplicaSnapshot {
  std::string offer_id;
  ObjectRef provider;
  double ewma_latency = 0.0;  // seconds; the optimistic prior until measured
  int in_flight = 0;
  int consecutive_failures = 0;
  BreakerState breaker = BreakerState::Closed;
  double weight = 1.0;  // trader-preference-rank seed (higher = preferred)
  uint64_t picks = 0;
  uint64_t successes = 0;
  uint64_t failures = 0;

  [[nodiscard]] Value to_value() const;
};

/// One replica of the service: the trader offer plus learned health state.
/// Outcome recording is fully self-contained (breaker transitions, EWMA,
/// obs counters/gauges), so hedged attempts running on detached futures need
/// no reference back to the owning set.
class Replica {
 public:
  Replica(std::string set_name, trading::OfferInfo offer, size_t rank, size_t total,
          BreakerConfig breaker, ClockPtr clock, obs::Histogram* latency_histogram);

  [[nodiscard]] const ObjectRef& provider() const { return provider_; }
  [[nodiscard]] trading::OfferInfo offer() const;
  [[nodiscard]] ReplicaSnapshot snapshot() const;

  /// Refresh merge: the provider re-appeared in the market with a (possibly
  /// updated) offer and preference rank; learned statistics are kept.
  void update_offer(trading::OfferInfo offer, size_t rank, size_t total);

  /// The p2c load estimate: EWMA latency x (in-flight + 1). Lower is better.
  [[nodiscard]] double load_score() const;

  /// Breaker admission *check* (non-mutating): closed, cooled-down open, or
  /// half-open with no probe in flight.
  [[nodiscard]] bool selectable() const;
  /// Commits selection of this replica: transitions a cooled-down Open
  /// breaker to HalfOpen and claims the single probe slot. Returns false
  /// when another thread won the probe slot in the meantime. `force`
  /// ignores the cooldown — the set's every-breaker-open escape hatch.
  bool admit(bool force = false);

  /// Clock time of the last transition to Open (0 if never opened); orders
  /// forced probes when every breaker in the set is open.
  [[nodiscard]] double opened_at() const;

  /// Forwards one invocation to this replica, recording the outcome:
  /// latency EWMA + histogram + per-replica gauge on success, breaker
  /// bookkeeping on transport-level failure. Application errors
  /// (RemoteError, BadOperation) count as *successes* for health — the
  /// replica answered. Rethrows whatever the ORB threw.
  Value invoke(const orb::OrbPtr& orb, const std::string& operation,
               const ValueList& args, const orb::InvokeOptions& options = {});

 private:
  void on_success(double latency_s);
  void on_failure();
  /// Overloaded/DeadlineExceeded outcome: pre-dispatch rejection from a
  /// live replica. EWMA penalty (steer away), no breaker trip.
  void on_overload();

  const std::string set_name_;
  const ObjectRef provider_;
  const BreakerConfig breaker_config_;
  const ClockPtr clock_;
  obs::Histogram* const latency_histogram_;  // registry-owned; process lifetime
  obs::Gauge* const ewma_gauge_;             // registry-owned

  mutable std::mutex mu_;
  trading::OfferInfo offer_;
  double weight_;
  double ewma_latency_;
  int in_flight_ = 0;
  int consecutive_failures_ = 0;
  BreakerState state_ = BreakerState::Closed;
  double opened_at_ = 0.0;     // clock time of the last Closed/HalfOpen -> Open
  bool probe_in_flight_ = false;
  uint64_t picks_ = 0;
  uint64_t successes_ = 0;
  uint64_t failures_ = 0;
};

using ReplicaPtr = std::shared_ptr<Replica>;

// ---- replica set -----------------------------------------------------------

struct ReplicaSetConfig {
  /// Seconds between trader re-queries; each interval is jittered by +-20%
  /// so a fleet of proxies does not re-query in lockstep.
  double refresh_ttl = 10.0;
  BreakerConfig breaker;
  HedgeConfig hedge;
  /// Jitter RNG seed; 0 derives one from the set name (deterministic per
  /// name, distinct across sets).
  uint32_t rng_seed = 0;
  /// Clock for breaker cooldowns and refresh TTLs; RealClock when null.
  /// Latencies are always measured on the steady wall clock.
  ClockPtr clock;
};

/// Every offer matching the proxy's query, with pick/outcome plumbing.
/// Thread-safe; the query function is invoked outside the set's lock.
class ReplicaSet {
 public:
  /// `query` runs the proxy's trader query and returns matching offers in
  /// preference order; it should throw on trader *failure* (as opposed to
  /// returning an empty vector for a legitimate no-match) so refresh can
  /// keep serving the stale set through an outage.
  using QueryFn = std::function<std::vector<trading::OfferInfo>()>;
  /// Custom scoring: highest score wins. Installed via set_score_fn /
  /// the Luma `lb.score` hook; overrides the configured policy.
  using ScoreFn = std::function<double(const ReplicaSnapshot&)>;

  ReplicaSet(std::string name, ReplicaSetConfig config, QueryFn query);
  ~ReplicaSet();
  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Re-queries the trader when the jittered TTL elapsed (or `force`).
  /// Merges by provider; keeps the stale set on trader failure.
  void refresh(bool force = false);

  /// Picks a replica per the current policy (or score callback) among
  /// selectable replicas, refreshing first when due or when the healthy set
  /// is below low-water. When every breaker is open, the least-recently
  /// opened replica is admitted as a forced probe rather than failing the
  /// request outright. Returns nullptr when the set is empty.
  ReplicaPtr pick();

  /// A second, distinct, remote replica for a hedged attempt; nullptr when
  /// none (hedge attempts run on helper threads — see HedgeConfig).
  ReplicaPtr pick_hedge(const ReplicaPtr& primary);

  /// One balanced invocation: pick() is the caller's; this runs the request
  /// on `replica` — hedged (idempotent + hedging enabled + remote target)
  /// or plain.
  Value invoke(const orb::OrbPtr& orb, const ReplicaPtr& replica,
               const std::string& operation, const ValueList& args, bool idempotent);

  void set_policy(Policy policy);
  [[nodiscard]] Policy policy() const;
  void set_score_fn(ScoreFn fn);  // nullptr restores the configured policy
  [[nodiscard]] bool has_score_fn() const;
  void set_hedge(HedgeConfig hedge);
  [[nodiscard]] HedgeConfig hedge() const;

  [[nodiscard]] size_t size() const;
  /// Replicas currently admissible (closed, cooled-down open, or half-open
  /// with a free probe slot).
  [[nodiscard]] size_t healthy() const;
  [[nodiscard]] std::vector<ReplicaSnapshot> snapshot() const;
  /// Luma/table view: { policy, size, healthy, replicas = { ... } }.
  [[nodiscard]] Value stats_value() const;

  /// Message of the last failed refresh; empty after a successful one.
  [[nodiscard]] std::string last_refresh_error() const;

  /// The hedge trigger budget: p95 of the set's latency histogram clamped
  /// into [min_delay, max_delay].
  [[nodiscard]] double hedge_delay() const;

 private:
  std::vector<ReplicaPtr> selectable_now() const;
  ReplicaPtr choose(const std::vector<ReplicaPtr>& candidates);
  Value invoke_hedged(const orb::OrbPtr& orb, const ReplicaPtr& primary,
                      const std::string& operation, const ValueList& args);
  /// Moves a still-running losing attempt out of the caller's way; drained
  /// opportunistically and joined by the destructor.
  void park(std::future<Value> loser);

  const std::string name_;
  const ReplicaSetConfig config_;
  const QueryFn query_;
  obs::Histogram* const latency_histogram_;  // registry-owned
  obs::Gauge* const size_gauge_;
  obs::Gauge* const healthy_gauge_;

  mutable std::mutex mu_;
  std::vector<ReplicaPtr> replicas_;
  Policy policy_ = Policy::Sticky;
  ScoreFn score_fn_;
  HedgeConfig hedge_;
  double next_refresh_ = 0.0;   // clock time; 0 = never refreshed
  double next_lowwater_ = 0.0;  // earliest clock time for a low-water requery
  std::string last_refresh_error_;
  size_t rr_next_ = 0;
  std::mt19937 rng_;

  std::mutex parked_mu_;
  std::vector<std::future<Value>> parked_;
};

using ReplicaSetPtr = std::shared_ptr<ReplicaSet>;

}  // namespace adapt::lb
