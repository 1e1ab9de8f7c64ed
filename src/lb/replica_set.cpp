#include "lb/replica_set.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

namespace adapt::lb {

namespace {

/// Latency is always measured on the steady wall clock, even when breaker
/// cooldowns and refresh TTLs run on a SimClock: virtual time stands still
/// during an invoke, so it cannot time one.
double steady_now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Refresh-interval jitter, as a fraction of refresh_ttl.
constexpr double kRefreshJitter = 0.2;
/// Healthy-replica count below which the next pick forces a re-query.
constexpr size_t kLowWater = 2;
/// EWMA weight of the newest latency sample.
constexpr double kEwmaAlpha = 0.3;
/// Optimistic latency prior for replicas with no samples yet, seconds —
/// fresh replicas look attractive until measured.
constexpr double kPriorLatency = 0.001;

ReplicaSetConfig normalized(ReplicaSetConfig c) {
  if (!c.clock) c.clock = std::make_shared<RealClock>();
  if (c.refresh_ttl <= 0) c.refresh_ttl = 10.0;
  if (c.breaker.failure_threshold < 1) c.breaker.failure_threshold = 1;
  if (c.hedge.min_delay < 0) c.hedge.min_delay = 0;
  c.hedge.max_delay = std::max(c.hedge.max_delay, c.hedge.min_delay);
  return c;
}

uint32_t seed_for(const std::string& name, uint32_t configured) {
  if (configured != 0) return configured;
  auto h = static_cast<uint32_t>(std::hash<std::string>{}(name));
  return h == 0 ? 1 : h;
}

/// Hedge attempts run on helper threads, which is only safe for targets
/// whose dispatch cannot need locks the calling thread holds (see
/// HedgeConfig). In-process references are also the one transport with no
/// request timeout to bound a stuck attempt.
bool remote_endpoint(const ObjectRef& ref) {
  return ref.endpoint.rfind("inproc://", 0) != 0;
}

/// "lb.pick", resolved once: it counts every balanced pick.
obs::Counter& pick_counter() {
  static obs::Counter& counter = obs::metrics().counter("lb.pick");
  return counter;
}

}  // namespace

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::Sticky: return "sticky";
    case Policy::RoundRobin: return "round_robin";
    case Policy::P2c: return "p2c";
    case Policy::Weighted: return "weighted";
  }
  return "?";
}

Policy policy_from_name(const std::string& name) {
  if (name == "sticky") return Policy::Sticky;
  if (name == "round_robin") return Policy::RoundRobin;
  if (name == "p2c") return Policy::P2c;
  if (name == "weighted") return Policy::Weighted;
  throw LbError("unknown lb policy '" + name +
                "' (expected sticky | round_robin | p2c | weighted)");
}

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half_open";
  }
  return "?";
}

Value ReplicaSnapshot::to_value() const {
  auto t = Table::make();
  t->set(Value("offer_id"), Value(offer_id));
  t->set(Value("provider"), Value(provider));
  t->set(Value("ewma_latency"), Value(ewma_latency));
  t->set(Value("in_flight"), Value(in_flight));
  t->set(Value("consecutive_failures"), Value(consecutive_failures));
  t->set(Value("breaker"), Value(breaker_state_name(breaker)));
  t->set(Value("weight"), Value(weight));
  t->set(Value("picks"), Value(picks));
  t->set(Value("successes"), Value(successes));
  t->set(Value("failures"), Value(failures));
  return Value(t);
}

// ---- Replica ---------------------------------------------------------------

Replica::Replica(std::string set_name, trading::OfferInfo offer, size_t rank, size_t total,
                 BreakerConfig breaker, ClockPtr clock, obs::Histogram* latency_histogram)
    : set_name_(std::move(set_name)),
      provider_(offer.provider),
      breaker_config_(breaker),
      clock_(std::move(clock)),
      latency_histogram_(latency_histogram),
      // Keyed by the full reference: object ids are only unique per ORB, and
      // a replica group is by construction spread across ORBs.
      ewma_gauge_(&obs::metrics().gauge("lb." + set_name_ + ".ewma_ns." +
                                        offer.provider.str())),
      offer_(std::move(offer)),
      weight_(static_cast<double>(total - rank)),
      ewma_latency_(kPriorLatency) {}

trading::OfferInfo Replica::offer() const {
  std::lock_guard lk(mu_);
  return offer_;
}

ReplicaSnapshot Replica::snapshot() const {
  std::lock_guard lk(mu_);
  ReplicaSnapshot s;
  s.offer_id = offer_.offer_id;
  s.provider = provider_;
  s.ewma_latency = ewma_latency_;
  s.in_flight = in_flight_;
  s.consecutive_failures = consecutive_failures_;
  s.breaker = state_;
  s.weight = weight_;
  s.picks = picks_;
  s.successes = successes_;
  s.failures = failures_;
  return s;
}

void Replica::update_offer(trading::OfferInfo offer, size_t rank, size_t total) {
  std::lock_guard lk(mu_);
  offer_ = std::move(offer);
  weight_ = static_cast<double>(total - rank);
}

double Replica::load_score() const {
  std::lock_guard lk(mu_);
  return ewma_latency_ * static_cast<double>(in_flight_ + 1);
}

bool Replica::selectable() const {
  std::lock_guard lk(mu_);
  switch (state_) {
    case BreakerState::Closed:
      return true;
    case BreakerState::Open:
      return clock_->now() - opened_at_ >= breaker_config_.open_cooldown;
    case BreakerState::HalfOpen:
      return !probe_in_flight_;
  }
  return false;
}

bool Replica::admit(bool force) {
  std::lock_guard lk(mu_);
  switch (state_) {
    case BreakerState::Closed:
      return true;
    case BreakerState::Open:
      if (!force && clock_->now() - opened_at_ < breaker_config_.open_cooldown) return false;
      state_ = BreakerState::HalfOpen;
      probe_in_flight_ = true;
      obs::metrics().counter("lb.breaker.probe").add();
      return true;
    case BreakerState::HalfOpen:
      if (probe_in_flight_ && !force) return false;
      probe_in_flight_ = true;
      return true;
  }
  return false;
}

double Replica::opened_at() const {
  std::lock_guard lk(mu_);
  return opened_at_;
}

Value Replica::invoke(const orb::OrbPtr& orb, const std::string& operation,
                      const ValueList& args, const orb::InvokeOptions& options) {
  orb::InvokeOptions opts = options;
  {
    std::lock_guard lk(mu_);
    ++in_flight_;
    ++picks_;
    // A half-open probe is control traffic: it exists to prove the replica
    // back alive, so it must not be shed by the replica's own admission
    // control — mark it critical unless the caller already decided.
    if (state_ == BreakerState::HalfOpen && probe_in_flight_ &&
        !opts.critical.has_value()) {
      opts.critical = true;
    }
  }
  const double start = steady_now_s();
  try {
    Value result = orb->invoke(provider_, operation, args, opts);
    on_success(steady_now_s() - start);
    return result;
  } catch (const orb::RejectedError&) {
    // Overloaded / DeadlineExceeded: the replica is *up* — it answered, fast,
    // with a pre-dispatch rejection — so this must not trip the breaker the
    // way a transport failure does. It is a distinct soft-failure signal:
    // steer selection away (EWMA penalty) and keep the breaker state sane.
    on_overload();
    throw;
  } catch (const orb::TransportError&) {
    on_failure();
    throw;
  } catch (const orb::ObjectNotFound&) {
    on_failure();
    throw;
  } catch (...) {
    // Application-level errors (RemoteError, BadOperation): the replica
    // answered, so for health purposes this is a success.
    on_success(steady_now_s() - start);
    throw;
  }
}

void Replica::on_success(double latency_s) {
  latency_histogram_->record(static_cast<uint64_t>(std::max(latency_s, 0.0) * 1e9));
  std::lock_guard lk(mu_);
  --in_flight_;
  ++successes_;
  consecutive_failures_ = 0;
  ewma_latency_ = kEwmaAlpha * latency_s + (1.0 - kEwmaAlpha) * ewma_latency_;
  ewma_gauge_->set(ewma_latency_ * 1e9);
  if (state_ == BreakerState::HalfOpen) {
    state_ = BreakerState::Closed;
    probe_in_flight_ = false;
    obs::metrics().counter("lb.breaker.close").add();
  }
}

void Replica::on_overload() {
  obs::metrics().counter("lb.overload").add();
  std::lock_guard lk(mu_);
  --in_flight_;
  ++failures_;
  // Alive-but-busy: reset the consecutive-failure streak (the replica
  // answered) and close out a half-open probe as a success — tripping to
  // Open would take a loaded-but-healthy replica out of rotation entirely,
  // the opposite of backing off. The EWMA penalty makes p2c/weighted
  // selection drain away from the overloaded replica instead: inflate the
  // estimate as if a sample twice the current one had been observed.
  consecutive_failures_ = 0;
  ewma_latency_ *= 1.0 + kEwmaAlpha;
  ewma_gauge_->set(ewma_latency_ * 1e9);
  if (state_ == BreakerState::HalfOpen) {
    state_ = BreakerState::Closed;
    probe_in_flight_ = false;
    obs::metrics().counter("lb.breaker.close").add();
  }
}

void Replica::on_failure() {
  std::lock_guard lk(mu_);
  --in_flight_;
  ++failures_;
  ++consecutive_failures_;
  switch (state_) {
    case BreakerState::HalfOpen:
      // The probe failed: back to Open for another full cooldown.
      state_ = BreakerState::Open;
      opened_at_ = clock_->now();
      probe_in_flight_ = false;
      obs::metrics().counter("lb.breaker.open").add();
      break;
    case BreakerState::Closed:
      if (consecutive_failures_ >= breaker_config_.failure_threshold) {
        state_ = BreakerState::Open;
        opened_at_ = clock_->now();
        obs::metrics().counter("lb.breaker.open").add();
      }
      break;
    case BreakerState::Open:
      // A straggler that was already in flight when the breaker tripped;
      // the cooldown deadline stays put so recovery is deterministic.
      break;
  }
}

// ---- ReplicaSet ------------------------------------------------------------

ReplicaSet::ReplicaSet(std::string name, ReplicaSetConfig config, QueryFn query)
    : name_(std::move(name)),
      config_(normalized(std::move(config))),
      query_(std::move(query)),
      latency_histogram_(&obs::metrics().histogram("lb." + name_ + ".latency_ns")),
      size_gauge_(&obs::metrics().gauge("lb." + name_ + ".size")),
      healthy_gauge_(&obs::metrics().gauge("lb." + name_ + ".healthy")),
      hedge_(config_.hedge),
      rng_(seed_for(name_, config_.rng_seed)) {}

ReplicaSet::~ReplicaSet() {
  // Join any still-running hedge losers; their outcomes were recorded by the
  // Replica they ran against, the results themselves are surplus.
  std::vector<std::future<Value>> parked;
  {
    std::lock_guard lk(parked_mu_);
    parked = std::move(parked_);
  }
  for (auto& f : parked) {
    if (!f.valid()) continue;
    try {
      f.get();
    } catch (...) {
    }
  }
}

void ReplicaSet::refresh(bool force) {
  const double now = config_.clock->now();
  {
    std::lock_guard lk(mu_);
    if (!force && next_refresh_ != 0.0 && now < next_refresh_) return;
    // Claim the refresh slot before querying so concurrent picks do not
    // stampede the trader; jitter keeps a fleet of proxies out of lockstep.
    std::uniform_real_distribution<double> jitter(-kRefreshJitter, kRefreshJitter);
    next_refresh_ = now + config_.refresh_ttl * (1.0 + jitter(rng_));
  }

  std::vector<trading::OfferInfo> offers;
  try {
    offers = query_();
  } catch (const std::exception& e) {
    // Trader failure: keep serving the stale set — degraded knowledge beats
    // no replicas at all.
    obs::metrics().counter("lb.refresh.error").add();
    std::lock_guard lk(mu_);
    last_refresh_error_ = e.what();
    return;
  }
  obs::metrics().counter("lb.refresh").add();

  std::lock_guard lk(mu_);
  last_refresh_error_.clear();
  std::vector<ReplicaPtr> next;
  next.reserve(offers.size());
  for (size_t i = 0; i < offers.size(); ++i) {
    auto it = std::find_if(replicas_.begin(), replicas_.end(), [&](const ReplicaPtr& r) {
      return r->provider() == offers[i].provider;
    });
    if (it != replicas_.end()) {
      // Survivor: keep the learned statistics, take the fresh offer + rank.
      (*it)->update_offer(offers[i], i, offers.size());
      next.push_back(*it);
    } else {
      next.push_back(std::make_shared<Replica>(
          name_, offers[i], i, offers.size(), config_.breaker, config_.clock,
          latency_histogram_));
    }
  }
  replicas_ = std::move(next);
  size_gauge_->set(static_cast<double>(replicas_.size()));
}

std::vector<ReplicaPtr> ReplicaSet::selectable_now() const {
  std::vector<ReplicaPtr> all;
  {
    std::lock_guard lk(mu_);
    all = replicas_;
  }
  std::vector<ReplicaPtr> out;
  out.reserve(all.size());
  for (const auto& r : all) {
    if (r->selectable()) out.push_back(r);
  }
  return out;
}

ReplicaPtr ReplicaSet::pick() {
  refresh(false);
  auto candidates = selectable_now();

  if (candidates.size() < kLowWater) {
    // The healthy set thinned out: re-query for fresh offers, throttled so a
    // persistently degraded set does not hammer the trader on every pick.
    const double now = config_.clock->now();
    bool requery = false;
    {
      std::lock_guard lk(mu_);
      if (now >= next_lowwater_) {
        next_lowwater_ = now + std::max(0.1, config_.refresh_ttl / 10.0);
        requery = true;
      }
    }
    if (requery) {
      obs::metrics().counter("lb.requery.lowwater").add();
      refresh(true);
      candidates = selectable_now();
    }
  }

  {
    std::lock_guard lk(mu_);
    size_gauge_->set(static_cast<double>(replicas_.size()));
  }
  healthy_gauge_->set(static_cast<double>(candidates.size()));

  if (candidates.empty()) {
    // Every breaker is open mid-cooldown (or the set is empty). Rather than
    // failing all traffic until a cooldown elapses, force-probe the replica
    // that has been open longest — it is the closest to recovery.
    std::vector<ReplicaPtr> all;
    {
      std::lock_guard lk(mu_);
      all = replicas_;
    }
    if (all.empty()) return nullptr;
    std::sort(all.begin(), all.end(), [](const ReplicaPtr& a, const ReplicaPtr& b) {
      return a->opened_at() < b->opened_at();
    });
    for (const auto& r : all) {
      if (r->admit(/*force=*/true)) {
        pick_counter().add();
        return r;
      }
    }
    return nullptr;
  }

  while (!candidates.empty()) {
    ReplicaPtr chosen = choose(candidates);
    if (!chosen) return nullptr;
    if (chosen->admit()) {
      pick_counter().add();
      return chosen;
    }
    // Lost the half-open probe slot to another thread: drop and re-choose.
    candidates.erase(std::remove(candidates.begin(), candidates.end(), chosen),
                     candidates.end());
  }
  return nullptr;
}

ReplicaPtr ReplicaSet::pick_hedge(const ReplicaPtr& primary) {
  auto candidates = selectable_now();
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [&](const ReplicaPtr& r) {
                                    return r == primary || !remote_endpoint(r->provider());
                                  }),
                   candidates.end());
  while (!candidates.empty()) {
    ReplicaPtr chosen = choose(candidates);
    if (!chosen) return nullptr;
    if (chosen->admit()) return chosen;
    candidates.erase(std::remove(candidates.begin(), candidates.end(), chosen),
                     candidates.end());
  }
  return nullptr;
}

ReplicaPtr ReplicaSet::choose(const std::vector<ReplicaPtr>& candidates) {
  if (candidates.empty()) return nullptr;
  if (candidates.size() == 1) return candidates.front();

  ScoreFn score;
  Policy policy;
  {
    std::lock_guard lk(mu_);
    score = score_fn_;
    policy = policy_;
  }

  if (score) {
    // Custom scoring (usually a Luma closure): run it on snapshots with no
    // set lock held, highest score wins.
    ReplicaPtr best;
    double best_score = -std::numeric_limits<double>::infinity();
    for (const auto& r : candidates) {
      const double s = score(r->snapshot());
      if (!best || s > best_score) {
        best = r;
        best_score = s;
      }
    }
    return best;
  }

  switch (policy) {
    case Policy::Sticky:
      // Preference order is preserved by refresh; sticky means "the winner".
      return candidates.front();
    case Policy::RoundRobin: {
      size_t idx;
      {
        std::lock_guard lk(mu_);
        idx = rr_next_++ % candidates.size();
      }
      return candidates[idx];
    }
    case Policy::P2c: {
      // Power of two choices: sample two distinct replicas, take the one
      // with the lower EWMA-latency x (in-flight + 1) load estimate.
      size_t i, j;
      {
        std::lock_guard lk(mu_);
        i = rng_() % candidates.size();
        j = rng_() % (candidates.size() - 1);
      }
      if (j >= i) ++j;
      return candidates[i]->load_score() <= candidates[j]->load_score() ? candidates[i]
                                                                        : candidates[j];
    }
    case Policy::Weighted: {
      double total = 0.0;
      std::vector<double> weights;
      weights.reserve(candidates.size());
      for (const auto& r : candidates) {
        const double w = std::max(r->snapshot().weight, 1e-9);
        weights.push_back(w);
        total += w;
      }
      double roll;
      {
        std::lock_guard lk(mu_);
        roll = std::uniform_real_distribution<double>(0.0, total)(rng_);
      }
      for (size_t k = 0; k < candidates.size(); ++k) {
        roll -= weights[k];
        if (roll <= 0.0) return candidates[k];
      }
      return candidates.back();
    }
  }
  return candidates.front();
}

Value ReplicaSet::invoke(const orb::OrbPtr& orb, const ReplicaPtr& replica,
                         const std::string& operation, const ValueList& args,
                         bool idempotent) {
  if (!replica) throw LbError("lb: no replica available for '" + operation + "'");
  bool hedged;
  {
    std::lock_guard lk(mu_);
    hedged = hedge_.enabled && orb::may_reissue(orb::Reissue::Hedge, idempotent);
  }
  if (!hedged || !remote_endpoint(replica->provider())) {
    return replica->invoke(orb, operation, args);
  }
  return invoke_hedged(orb, replica, operation, args);
}

Value ReplicaSet::invoke_hedged(const orb::OrbPtr& orb, const ReplicaPtr& primary,
                                const std::string& operation, const ValueList& args) {
  using namespace std::chrono;
  const double delay = hedge_delay();

  // Both attempts capture orb/replica/args by value — never `this` — so a
  // parked loser can outlive the calling request without touching the set.
  // Each runs under the caller's trace context and dispatch deadline.
  const orb::CallerContext caller;
  auto fut1 = std::async(std::launch::async, [orb, primary, operation, args, caller] {
    return caller.run([&] { return primary->invoke(orb, operation, args); });
  });
  if (fut1.wait_for(duration<double>(delay)) == std::future_status::ready) {
    return fut1.get();
  }

  ReplicaPtr second = pick_hedge(primary);
  if (!second) return fut1.get();

  // Hedges draw from the same per-endpoint retry budget as the ORB's own
  // retries: under a server brown-out the bucket drains and hedging stops,
  // instead of doubling the offered load exactly when it hurts most.
  if (!orb->try_spend_retry_token(second->provider().endpoint)) {
    obs::metrics().counter("lb.hedge.suppressed").add();
    return fut1.get();
  }

  obs::metrics().counter("lb.hedge.fired").add();
  auto fut2 = std::async(std::launch::async, [orb, second, operation, args, caller] {
    return caller.run([&] { return second->invoke(orb, operation, args); });
  });

  // First completion wins; a winner that completed with an error falls back
  // to the other attempt's outcome, so a hedge never makes a request fail
  // that would have succeeded unhedged.
  while (true) {
    if (fut1.wait_for(microseconds(200)) == std::future_status::ready) {
      try {
        Value v = fut1.get();
        park(std::move(fut2));
        return v;
      } catch (...) {
        Value v = fut2.get();
        obs::metrics().counter("lb.hedge.won").add();
        return v;
      }
    }
    if (fut2.wait_for(seconds(0)) == std::future_status::ready) {
      try {
        Value v = fut2.get();
        obs::metrics().counter("lb.hedge.won").add();
        park(std::move(fut1));
        return v;
      } catch (...) {
        return fut1.get();
      }
    }
  }
}

void ReplicaSet::park(std::future<Value> loser) {
  std::lock_guard lk(parked_mu_);
  // Opportunistically reap losers that have since finished; their outcomes
  // were already recorded by their Replica.
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (it->wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      try {
        it->get();
      } catch (...) {
      }
      it = parked_.erase(it);
    } else {
      ++it;
    }
  }
  parked_.push_back(std::move(loser));
}

void ReplicaSet::set_policy(Policy policy) {
  std::lock_guard lk(mu_);
  policy_ = policy;
}

Policy ReplicaSet::policy() const {
  std::lock_guard lk(mu_);
  return policy_;
}

void ReplicaSet::set_score_fn(ScoreFn fn) {
  std::lock_guard lk(mu_);
  score_fn_ = std::move(fn);
}

bool ReplicaSet::has_score_fn() const {
  std::lock_guard lk(mu_);
  return static_cast<bool>(score_fn_);
}

void ReplicaSet::set_hedge(HedgeConfig hedge) {
  std::lock_guard lk(mu_);
  if (hedge.min_delay < 0) hedge.min_delay = 0;
  hedge.max_delay = std::max(hedge.max_delay, hedge.min_delay);
  hedge_ = hedge;
}

HedgeConfig ReplicaSet::hedge() const {
  std::lock_guard lk(mu_);
  return hedge_;
}

size_t ReplicaSet::size() const {
  std::lock_guard lk(mu_);
  return replicas_.size();
}

size_t ReplicaSet::healthy() const { return selectable_now().size(); }

std::vector<ReplicaSnapshot> ReplicaSet::snapshot() const {
  std::vector<ReplicaPtr> all;
  {
    std::lock_guard lk(mu_);
    all = replicas_;
  }
  std::vector<ReplicaSnapshot> out;
  out.reserve(all.size());
  for (const auto& r : all) out.push_back(r->snapshot());
  return out;
}

Value ReplicaSet::stats_value() const {
  auto t = Table::make();
  t->set(Value("policy"), Value(policy_name(policy())));
  t->set(Value("custom_score"), Value(has_score_fn()));
  t->set(Value("hedge"), Value(hedge().enabled));
  auto snaps = snapshot();
  size_t healthy_count = 0;
  auto replicas = Table::make();
  for (const auto& s : snaps) {
    if (s.breaker != BreakerState::Open) ++healthy_count;
    replicas->append(s.to_value());
  }
  t->set(Value("size"), Value(static_cast<uint64_t>(snaps.size())));
  t->set(Value("healthy"), Value(static_cast<uint64_t>(healthy_count)));
  t->set(Value("replicas"), Value(replicas));
  std::string err = last_refresh_error();
  if (!err.empty()) t->set(Value("last_refresh_error"), Value(err));
  return Value(t);
}

std::string ReplicaSet::last_refresh_error() const {
  std::lock_guard lk(mu_);
  return last_refresh_error_;
}

double ReplicaSet::hedge_delay() const {
  HedgeConfig h;
  {
    std::lock_guard lk(mu_);
    h = hedge_;
  }
  const auto snap = latency_histogram_->snapshot();
  const double p95_s = snap.count > 0 ? snap.p95 / 1e9 : h.min_delay;
  return std::clamp(p95_s, h.min_delay, h.max_delay);
}

}  // namespace adapt::lb
