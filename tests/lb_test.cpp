// Replica-group load balancing (src/lb): breaker state machine, selection
// policies, refresh merging, hedging, and the SmartProxy integration —
// including the kill-one-replica failover path and the sticky-default pin.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "core/infrastructure.h"
#include "lb/replica_set.h"
#include "obs/metrics.h"

namespace adapt::lb {
namespace {

using core::Infrastructure;
using core::InfrastructureOptions;
using core::NoComponentAvailable;
using core::SmartProxy;
using core::SmartProxyConfig;
using core::TraderUnavailable;
using orb::FunctionServant;

uint64_t counter_value(const std::string& name) {
  return obs::metrics().counter(name).value();
}

TEST(LbPolicyTest, NamesRoundTrip) {
  for (const Policy p :
       {Policy::Sticky, Policy::RoundRobin, Policy::P2c, Policy::Weighted}) {
    EXPECT_EQ(policy_from_name(policy_name(p)), p);
  }
  EXPECT_THROW((void)policy_from_name("fastest"), LbError);
}

// ---- circuit breaker state machine ----------------------------------------

class BreakerTest : public ::testing::Test {
 protected:
  BreakerTest() {
    orb_ = orb::Orb::create(orb::OrbConfig{.name = "lbbrk" + std::to_string(counter_++)});
    servant_ = FunctionServant::make("Svc");
    servant_->on("op", [](const ValueList&) { return Value("ok"); });
    ref_ = orb_->register_servant(servant_);
  }

  Replica make_replica(int threshold, double cooldown) {
    trading::OfferInfo offer;
    offer.offer_id = "offer-1";
    offer.service_type = "Svc";
    offer.provider = ref_;
    return Replica("brk", offer, /*rank=*/0, /*total=*/1, BreakerConfig{threshold, cooldown},
                   clock_, &obs::metrics().histogram("lb.brk.latency_ns"));
  }

  Value invoke(Replica& r) { return r.invoke(orb_, "op", {}); }

  std::shared_ptr<SimClock> clock_ = std::make_shared<SimClock>();
  orb::OrbPtr orb_;
  std::shared_ptr<FunctionServant> servant_;
  ObjectRef ref_;
  static int counter_;
};

int BreakerTest::counter_ = 0;

TEST_F(BreakerTest, ClosedOpensAfterConsecutiveFailuresThenProbesAndRecovers) {
  const uint64_t opened0 = counter_value("lb.breaker.open");
  const uint64_t closed0 = counter_value("lb.breaker.close");
  Replica r = make_replica(/*threshold=*/3, /*cooldown=*/5.0);

  EXPECT_EQ(invoke(r).as_string(), "ok");
  EXPECT_EQ(r.snapshot().breaker, BreakerState::Closed);

  // Transport-level failures trip the breaker after N consecutive ones.
  orb_->unregister_servant(ref_.object_id);
  for (int i = 0; i < 2; ++i) {
    EXPECT_THROW(invoke(r), orb::ObjectNotFound);
    EXPECT_EQ(r.snapshot().breaker, BreakerState::Closed) << "below threshold";
    EXPECT_TRUE(r.selectable());
  }
  EXPECT_THROW(invoke(r), orb::ObjectNotFound);
  EXPECT_EQ(r.snapshot().breaker, BreakerState::Open);
  EXPECT_FALSE(r.selectable()) << "open replica is evicted from selection";
  EXPECT_FALSE(r.admit()) << "cooldown has not elapsed";
  EXPECT_EQ(counter_value("lb.breaker.open"), opened0 + 1);

  // Cooldown elapses (virtual time): exactly one probe is admitted.
  clock_->advance(5.0);
  EXPECT_TRUE(r.selectable());
  EXPECT_TRUE(r.admit());
  EXPECT_EQ(r.snapshot().breaker, BreakerState::HalfOpen);
  EXPECT_FALSE(r.admit()) << "single probe slot";
  EXPECT_FALSE(r.selectable());

  // Failed probe: back to Open for another full cooldown.
  EXPECT_THROW(invoke(r), orb::ObjectNotFound);
  EXPECT_EQ(r.snapshot().breaker, BreakerState::Open);
  EXPECT_EQ(counter_value("lb.breaker.open"), opened0 + 2);
  EXPECT_FALSE(r.admit());

  // Server comes back; successful probe closes the breaker.
  ref_ = orb_->register_servant(servant_, ref_.object_id);
  clock_->advance(5.0);
  EXPECT_TRUE(r.admit());
  EXPECT_EQ(invoke(r).as_string(), "ok");
  EXPECT_EQ(r.snapshot().breaker, BreakerState::Closed);
  EXPECT_TRUE(r.selectable());
  EXPECT_EQ(counter_value("lb.breaker.close"), closed0 + 1);
}

TEST_F(BreakerTest, ApplicationErrorsDoNotTripTheBreaker) {
  Replica r = make_replica(/*threshold=*/2, /*cooldown=*/5.0);
  servant_->on("boom", [](const ValueList&) -> Value { throw Error("app bug"); });
  for (int i = 0; i < 5; ++i) EXPECT_THROW(r.invoke(orb_, "boom", {}), orb::RemoteError);
  const auto snap = r.snapshot();
  EXPECT_EQ(snap.breaker, BreakerState::Closed) << "the replica answered";
  EXPECT_EQ(snap.consecutive_failures, 0);
  EXPECT_EQ(snap.successes, 5u);
}

TEST_F(BreakerTest, SuccessResetsConsecutiveFailures) {
  Replica r = make_replica(/*threshold=*/3, /*cooldown=*/5.0);
  orb_->unregister_servant(ref_.object_id);
  EXPECT_THROW(invoke(r), orb::ObjectNotFound);
  EXPECT_THROW(invoke(r), orb::ObjectNotFound);
  ref_ = orb_->register_servant(servant_, ref_.object_id);
  EXPECT_EQ(invoke(r).as_string(), "ok");
  EXPECT_EQ(r.snapshot().consecutive_failures, 0);
  orb_->unregister_servant(ref_.object_id);
  EXPECT_THROW(invoke(r), orb::ObjectNotFound);
  EXPECT_EQ(r.snapshot().breaker, BreakerState::Closed) << "streak restarted";
}

// ---- replica set ----------------------------------------------------------

TEST(ReplicaSetTest, RefreshMergesByProviderKeepingStatistics) {
  auto orb = orb::Orb::create(orb::OrbConfig{.name = "lbmerge"});
  auto servant = FunctionServant::make("Svc");
  servant->on("op", [](const ValueList&) { return Value("ok"); });
  const ObjectRef a = orb->register_servant(servant, "prov-a");
  const ObjectRef b = orb->register_servant(servant, "prov-b");
  const ObjectRef c = orb->register_servant(servant, "prov-c");

  auto make_offer = [](const ObjectRef& ref, const std::string& id) {
    trading::OfferInfo o;
    o.offer_id = id;
    o.service_type = "Svc";
    o.provider = ref;
    return o;
  };
  auto offers = std::make_shared<std::vector<trading::OfferInfo>>(
      std::vector<trading::OfferInfo>{make_offer(a, "oa"), make_offer(b, "ob")});

  ReplicaSetConfig cfg;
  cfg.clock = std::make_shared<SimClock>();
  ReplicaSet set("merge", cfg, [offers] { return *offers; });
  set.set_policy(Policy::RoundRobin);

  set.refresh(/*force=*/true);
  ASSERT_EQ(set.size(), 2u);
  for (int i = 0; i < 4; ++i) {
    auto r = set.pick();
    ASSERT_TRUE(r);
    set.invoke(orb, r, "op", {}, /*idempotent=*/false);
  }

  // B vanishes from the market, C appears; A keeps its learned stats.
  *offers = {make_offer(a, "oa2"), make_offer(c, "oc")};
  set.refresh(/*force=*/true);
  ASSERT_EQ(set.size(), 2u);
  bool saw_a = false, saw_c = false;
  for (const auto& snap : set.snapshot()) {
    if (snap.provider == a) {
      saw_a = true;
      EXPECT_EQ(snap.offer_id, "oa2") << "offer payload refreshed";
      EXPECT_EQ(snap.successes, 2u) << "statistics survive the merge";
    }
    if (snap.provider == c) {
      saw_c = true;
      EXPECT_EQ(snap.successes, 0u);
    }
    EXPECT_FALSE(snap.provider == b);
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_c);
}

TEST(ReplicaSetTest, RefreshFailureKeepsStaleSet) {
  auto orb = orb::Orb::create(orb::OrbConfig{.name = "lbstale"});
  auto servant = FunctionServant::make("Svc");
  servant->on("op", [](const ValueList&) { return Value("ok"); });
  const ObjectRef a = orb->register_servant(servant);

  trading::OfferInfo offer;
  offer.offer_id = "oa";
  offer.service_type = "Svc";
  offer.provider = a;
  auto fail = std::make_shared<bool>(false);
  ReplicaSetConfig cfg;
  cfg.clock = std::make_shared<SimClock>();
  ReplicaSet set("stale", cfg, [fail, offer]() -> std::vector<trading::OfferInfo> {
    if (*fail) throw Error("trader down");
    return {offer};
  });
  set.refresh(/*force=*/true);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.last_refresh_error().empty());

  const uint64_t errors0 = counter_value("lb.refresh.error");
  *fail = true;
  set.refresh(/*force=*/true);
  EXPECT_EQ(set.size(), 1u) << "stale set kept through the outage";
  EXPECT_FALSE(set.last_refresh_error().empty());
  EXPECT_EQ(counter_value("lb.refresh.error"), errors0 + 1);
  EXPECT_TRUE(set.pick() != nullptr) << "picks keep serving from the stale set";
}

// ---- proxy integration -----------------------------------------------------

class LbProxyTest : public ::testing::Test {
 protected:
  LbProxyTest() {
    trading::ServiceTypeDef type;
    type.name = "Svc";
    infra_.trader().types().add(type);
  }

  /// Deploys a replica whose idempotent "getvalue" identifies the host.
  ObjectRef deploy(const std::string& name, double sleep_s = 0.0) {
    auto servant = FunctionServant::make("Svc");
    servant->on("getvalue", [name, sleep_s](const ValueList&) {
      if (sleep_s > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      }
      return Value(name);
    });
    servant->on("whoami", [name](const ValueList&) { return Value(name); });
    return infra_.deploy_server(name, "Svc", servant);
  }

  Infrastructure infra_{InfrastructureOptions{.name = "lbp" + std::to_string(counter_++)}};
  static int counter_;
};

int LbProxyTest::counter_ = 0;

TEST_F(LbProxyTest, RoundRobinSpreadsAcrossAllReplicas) {
  deploy("h1");
  deploy("h2");
  deploy("h3");
  SmartProxyConfig cfg;
  cfg.service_type = "Svc";
  cfg.lb_policy = "round_robin";
  auto proxy = infra_.make_proxy(cfg);

  const uint64_t picks0 = counter_value("lb.pick");
  std::map<std::string, int> hits;
  for (int i = 0; i < 9; ++i) ++hits[proxy->invoke("getvalue").as_string()];
  EXPECT_EQ(hits.size(), 3u);
  for (const auto& [name, n] : hits) EXPECT_EQ(n, 3) << name;
  EXPECT_EQ(counter_value("lb.pick"), picks0 + 9);
  EXPECT_EQ(proxy->lb_policy(), "round_robin");
  ASSERT_TRUE(proxy->replica_set());
  EXPECT_EQ(proxy->replica_set()->size(), 3u);
  EXPECT_EQ(proxy->replica_set()->healthy(), 3u);
}

TEST_F(LbProxyTest, P2cSpreadsLoadAcrossReplicas) {
  deploy("h1");
  deploy("h2");
  deploy("h3");
  SmartProxyConfig cfg;
  cfg.service_type = "Svc";
  cfg.lb_policy = "p2c";
  auto proxy = infra_.make_proxy(cfg);

  std::set<std::string> seen;
  for (int i = 0; i < 30; ++i) seen.insert(proxy->invoke("getvalue").as_string());
  EXPECT_GE(seen.size(), 2u) << "p2c must not fixate on one replica";
}

TEST_F(LbProxyTest, KillOneReplicaFailsOverAndRequeries) {
  deploy("h1");
  const ObjectRef killed = deploy("h2");
  deploy("h3");
  SmartProxyConfig cfg;
  cfg.service_type = "Svc";
  cfg.lb_policy = "round_robin";
  cfg.lb.breaker.failure_threshold = 1;
  cfg.lb.breaker.open_cooldown = 1000.0;  // stays open for the whole test
  cfg.lb.refresh_ttl = 10.0;
  auto proxy = infra_.make_proxy(cfg);

  for (int i = 0; i < 6; ++i) EXPECT_NO_THROW(proxy->invoke("getvalue"));
  ASSERT_EQ(proxy->replica_set()->healthy(), 3u);

  // h2's servant dies: the next pick of it fails, the breaker opens, and
  // auto-failover repicks — the caller never sees the failure.
  const uint64_t opened0 = counter_value("lb.breaker.open");
  infra_.host_orb("h2")->unregister_servant(killed.object_id);
  std::map<std::string, int> hits;
  for (int i = 0; i < 12; ++i) ++hits[proxy->invoke("getvalue").as_string()];
  EXPECT_EQ(hits.count("h2"), 0u);
  EXPECT_GT(hits["h1"], 0);
  EXPECT_GT(hits["h3"], 0);
  EXPECT_GE(counter_value("lb.breaker.open"), opened0 + 1);
  EXPECT_EQ(proxy->replica_set()->healthy(), 2u);
  EXPECT_EQ(proxy->replica_set()->size(), 3u);

  // The offer disappears from the market too; once the TTL elapses the next
  // pick re-queries and the dead replica drops out of the set entirely.
  for (const auto& info : infra_.trader().query("Svc", "")) {
    if (info.provider == killed) infra_.trader().withdraw(info.offer_id);
  }
  infra_.run_for(15.0);
  EXPECT_NO_THROW(proxy->invoke("getvalue"));
  EXPECT_EQ(proxy->replica_set()->size(), 2u);
  EXPECT_EQ(proxy->replica_set()->healthy(), 2u);
}

TEST_F(LbProxyTest, HedgingSkipsInProcessTargets) {
  // Hedge attempts run on helper threads, so only remote replicas are ever
  // hedged (see HedgeConfig): an all-in-proc set must never fire one, even
  // when the primary stalls well past the hedge budget.
  deploy("slow", /*sleep_s=*/0.05);
  deploy("fast");
  SmartProxyConfig cfg;
  cfg.service_type = "Svc";
  cfg.lb_policy = "round_robin";
  cfg.lb.hedge.enabled = true;
  cfg.lb.hedge.min_delay = 0.005;
  cfg.lb.hedge.max_delay = 0.005;
  auto proxy = infra_.make_proxy(cfg);

  const uint64_t fired0 = counter_value("lb.hedge.fired");
  std::map<std::string, int> hits;
  for (int i = 0; i < 4; ++i) ++hits[proxy->invoke("getvalue").as_string()];
  EXPECT_EQ(counter_value("lb.hedge.fired"), fired0);
  EXPECT_EQ(hits["slow"], 2) << "slow in-proc picks are served in place";
}

// ---- hedged requests -------------------------------------------------------

// Hedging only targets remote replicas, so these tests run real TCP
// servers: one slow, one fast, both offered through the trader.
class HedgeTest : public ::testing::Test {
 protected:
  HedgeTest() {
    trading::ServiceTypeDef type;
    type.name = "Svc";
    infra_.trader().types().add(type);
    // The slow server is exported first and wins the preference rank, so
    // round robin starts there.
    slow_orb_ = make_server("slow", /*sleep_s=*/0.25);
    fast_orb_ = make_server("fast", /*sleep_s=*/0.0);
    client_ = orb::Orb::create(orb::OrbConfig{
        .name = "lbhedge-cli" + std::to_string(counter_++), .request_timeout = 5.0});
  }

  ~HedgeTest() override {
    slow_orb_->shutdown();
    fast_orb_->shutdown();
  }

  /// A TCP server whose operations identify it after sleeping sleep_s.
  orb::OrbPtr make_server(const std::string& name, double sleep_s) {
    auto server = orb::Orb::create(orb::OrbConfig{
        .name = "lbhedge-" + name + std::to_string(counter_), .listen_tcp = true});
    auto servant = FunctionServant::make("Svc");
    auto reply = [name, sleep_s](const ValueList&) {
      if (sleep_s > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      }
      return Value(name);
    };
    servant->on("getvalue", reply);
    servant->on("whoami", reply);
    infra_.trader().export_offer("Svc", server->register_servant(servant), {});
    return server;
  }

  core::SmartProxyPtr make_proxy(double hedge_delay_s) {
    SmartProxyConfig cfg;
    cfg.service_type = "Svc";
    cfg.monitor_property = "";
    cfg.lb_policy = "round_robin";
    cfg.lb.hedge.enabled = true;
    cfg.lb.hedge.min_delay = hedge_delay_s;
    cfg.lb.hedge.max_delay = hedge_delay_s;
    return SmartProxy::create(client_, infra_.trader().lookup_ref(), cfg);
  }

  Infrastructure infra_{InfrastructureOptions{.name = "lbh" + std::to_string(counter_)}};
  orb::OrbPtr slow_orb_;
  orb::OrbPtr fast_orb_;
  orb::OrbPtr client_;
  static int counter_;
};

int HedgeTest::counter_ = 0;

TEST_F(HedgeTest, HedgedRequestWinsOverSlowPrimary) {
  // Round-robin over a slow and a fast replica: when the slow one is the
  // primary, the hedge fires at the (clamped) budget and the fast replica's
  // response wins.
  auto proxy = make_proxy(/*hedge_delay_s=*/0.01);
  const uint64_t fired0 = counter_value("lb.hedge.fired");
  const uint64_t won0 = counter_value("lb.hedge.won");
  std::map<std::string, int> hits;
  for (int i = 0; i < 4; ++i) ++hits[proxy->invoke("getvalue").as_string()];
  EXPECT_EQ(hits["fast"], 4) << "hedge rescues every slow-primary pick";
  EXPECT_GE(counter_value("lb.hedge.fired"), fired0 + 2);
  EXPECT_GE(counter_value("lb.hedge.won"), won0 + 2);
}

TEST_F(HedgeTest, HedgedAttemptsJoinTheCallersTrace) {
  // Both attempts of a hedged read run on helper threads; each must carry
  // the caller's trace context instead of rooting a trace of its own.
  auto proxy = make_proxy(/*hedge_delay_s=*/0.01);
  const uint64_t fired0 = counter_value("lb.hedge.fired");
  obs::TraceContext caller;
  {
    obs::ScopedSpan root("hedged-caller");
    caller = root.context();
    for (int i = 0; i < 2; ++i) EXPECT_EQ(proxy->invoke("getvalue").as_string(), "fast");
  }
  ASSERT_TRUE(caller.valid());
  ASSERT_GE(counter_value("lb.hedge.fired"), fired0 + 1);
  // Slow primary + hedge, then the fast primary: at least three client
  // attempts, the slow loser's span recorded once it finishes.
  const auto attempts_in_trace = [&] {
    size_t n = 0;
    for (const obs::Span& span : obs::default_tracer().trace(caller.trace_hi, caller.trace_lo)) {
      if (span.kind == obs::SpanKind::Client && span.name == "getvalue") ++n;
    }
    return n;
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (attempts_in_trace() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(attempts_in_trace(), 3u);
}

TEST_F(HedgeTest, HedgingSkipsNonIdempotentOperations) {
  // "whoami" is not in the ORB's idempotent set: it must never hedge, even
  // when the primary is slow.
  auto proxy = make_proxy(/*hedge_delay_s=*/0.005);
  const uint64_t fired0 = counter_value("lb.hedge.fired");
  std::map<std::string, int> hits;
  for (int i = 0; i < 4; ++i) ++hits[proxy->invoke("whoami").as_string()];
  EXPECT_EQ(counter_value("lb.hedge.fired"), fired0);
  EXPECT_EQ(hits["slow"], 2) << "round robin still reaches the slow replica";
}

TEST_F(LbProxyTest, StickyDefaultNeverCreatesAReplicaSet) {
  deploy("h1");
  deploy("h2");
  SmartProxyConfig cfg;
  cfg.service_type = "Svc";
  auto proxy = infra_.make_proxy(cfg);
  ASSERT_TRUE(proxy->select());

  const uint64_t picks0 = counter_value("lb.pick");
  for (int i = 0; i < 5; ++i) EXPECT_NO_THROW(proxy->invoke("whoami"));
  EXPECT_EQ(proxy->replica_set(), nullptr)
      << "default config must not instantiate the balancing layer";
  EXPECT_EQ(proxy->lb_policy(), "sticky");
  EXPECT_EQ(counter_value("lb.pick"), picks0);
  EXPECT_EQ(proxy->binding_history().size(), 1u) << "single-bind behavior";
}

TEST_F(LbProxyTest, StrategyScriptsRetuneBalancing) {
  deploy("h1");
  deploy("h2");
  deploy("h3");
  SmartProxyConfig cfg;
  cfg.service_type = "Svc";
  auto proxy = infra_.make_proxy(cfg);

  // lb.* passes the strategy capability policy (lint gate runs inside).
  proxy->eval_strategy_script("lb.set_policy('p2c')");
  EXPECT_EQ(proxy->lb_policy(), "p2c");
  EXPECT_NO_THROW(proxy->invoke("getvalue"));

  // A custom scorer overrides the policy: highest trader-preference weight
  // wins, which is deterministic — always the first-ranked offer.
  proxy->eval_strategy_script("lb.score(function(s) return s.weight end)");
  std::set<std::string> seen;
  for (int i = 0; i < 6; ++i) seen.insert(proxy->invoke("getvalue").as_string());
  EXPECT_EQ(seen.size(), 1u) << "scorer pins selection to one replica";

  const Value stats = proxy->engine()->eval1("return lb.stats()");
  ASSERT_TRUE(stats.is_table());
  EXPECT_EQ(stats.as_table()->get(Value("size")).as_number(), 3.0);
  EXPECT_EQ(stats.as_table()->get(Value("policy")).as_string(), "p2c");
  EXPECT_TRUE(stats.as_table()->get(Value("custom_score")).as_bool());

  // Clearing the scorer restores the configured policy.
  proxy->eval_strategy_script("lb.score(nil)");
  EXPECT_FALSE(proxy->replica_set()->has_score_fn());
}

// ---- satellite fixes -------------------------------------------------------

TEST_F(LbProxyTest, TraderOutageIsDistinguishedFromNoMatch) {
  deploy("h1");
  SmartProxyConfig cfg;
  cfg.service_type = "Svc";

  // Unreachable trader: select() keeps its false-no-throw contract, but the
  // invoke error names the outage.
  auto orphan = SmartProxy::create(infra_.make_orb("lb-orphan"),
                                   ObjectRef{"inproc://nowhere", "lookup", ""}, cfg);
  const uint64_t errors0 = counter_value("proxy.trader.error");
  EXPECT_FALSE(orphan->select());
  EXPECT_GE(counter_value("proxy.trader.error"), errors0 + 1);
  EXPECT_THROW(orphan->invoke("whoami"), TraderUnavailable);

  // Healthy trader, zero matching offers: plain NoComponentAvailable.
  trading::ServiceTypeDef type;
  type.name = "EmptySvc";
  infra_.trader().types().add(type);
  SmartProxyConfig empty_cfg;
  empty_cfg.service_type = "EmptySvc";
  auto empty = infra_.make_proxy(empty_cfg);
  EXPECT_FALSE(empty->select());
  try {
    empty->invoke("whoami");
    FAIL() << "expected NoComponentAvailable";
  } catch (const TraderUnavailable&) {
    FAIL() << "no-match must not be reported as a trader outage";
  } catch (const NoComponentAvailable&) {
  }
}

TEST_F(LbProxyTest, BalancedInvokeReportsTraderOutage) {
  SmartProxyConfig cfg;
  cfg.service_type = "Svc";
  cfg.lb_policy = "round_robin";
  auto orphan = SmartProxy::create(infra_.make_orb("lb-orphan2"),
                                   ObjectRef{"inproc://nowhere", "lookup", ""}, cfg);
  EXPECT_THROW(orphan->invoke("getvalue"), TraderUnavailable);
}

class FailoverGateTest : public ::testing::Test {
 protected:
  FailoverGateTest() {
    trading::ServiceTypeDef type;
    type.name = "Svc";
    infra_.trader().types().add(type);

    // A TCP server whose operations stall longer than the client's request
    // timeout: the request is fully written before the failure, so the
    // TransportError carries maybe_executed = true.
    server_ = orb::Orb::create(orb::OrbConfig{
        .name = "lbgate-srv" + std::to_string(counter_), .listen_tcp = true});
    auto slow = FunctionServant::make("Svc");
    slow->on("getvalue", [](const ValueList&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
      return Value("slow");
    });
    slow->on("submit", [this](const ValueList&) {
      ++submits_;
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
      return Value("slow");
    });
    slow_ref_ = server_->register_servant(slow);
    infra_.trader().export_offer("Svc", slow_ref_, {});

    // A healthy in-process fallback replica, exported second so the slow
    // server is the preference winner.
    auto fast_orb = infra_.make_orb("lbgate-fast" + std::to_string(counter_));
    auto fast = FunctionServant::make("Svc");
    fast->on("getvalue", [](const ValueList&) { return Value("fast"); });
    fast->on("submit", [this](const ValueList&) {
      ++fast_submits_;
      return Value("fast");
    });
    fast_ref_ = fast_orb->register_servant(fast);
    infra_.trader().export_offer("Svc", fast_ref_, {});
    fast_orb_ = fast_orb;

    client_ = orb::Orb::create(orb::OrbConfig{
        .name = "lbgate-cli" + std::to_string(counter_++), .request_timeout = 0.2});
  }

  ~FailoverGateTest() override { server_->shutdown(); }

  core::SmartProxyPtr make_proxy(const std::string& lb_policy = "sticky") {
    SmartProxyConfig cfg;
    cfg.service_type = "Svc";
    cfg.monitor_property = "";
    cfg.lb_policy = lb_policy;
    return SmartProxy::create(client_, infra_.trader().lookup_ref(), cfg);
  }

  /// Invokes the non-idempotent "submit", which lands on the slow replica:
  /// the post-send timeout must surface, and once the stalled dispatch is
  /// over, submit must have run there exactly once and never elsewhere.
  void expect_submit_surfaces_and_runs_once(SmartProxy& proxy) {
    try {
      proxy.invoke("submit");
      FAIL() << "expected TimeoutError";
    } catch (const orb::TransportError& e) {
      EXPECT_TRUE(e.maybe_executed());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    EXPECT_EQ(submits_.load(), 1);
    EXPECT_EQ(fast_submits_.load(), 0);
  }

  Infrastructure infra_{InfrastructureOptions{.name = "lbg" + std::to_string(counter_)}};
  orb::OrbPtr server_;
  orb::OrbPtr fast_orb_;
  orb::OrbPtr client_;
  ObjectRef slow_ref_;
  ObjectRef fast_ref_;
  std::atomic<int> submits_{0};
  std::atomic<int> fast_submits_{0};
  static int counter_;
};

int FailoverGateTest::counter_ = 0;

TEST_F(FailoverGateTest, PostSendTimeoutFailsOverOnlyWhenIdempotent) {
  // Idempotent operation: the timeout strikes after the request was written,
  // but re-execution is safe — the proxy reselects and the fast replica
  // answers.
  auto proxy = make_proxy();
  ASSERT_TRUE(proxy->select());
  ASSERT_TRUE(proxy->current() == slow_ref_);
  EXPECT_EQ(proxy->invoke("getvalue").as_string(), "fast");
  EXPECT_EQ(proxy->binding_history().size(), 2u) << "failed over to the fast replica";

  // Non-idempotent operation: the slow server may already be executing it,
  // so auto-failover must NOT re-run it elsewhere — the timeout surfaces.
  auto proxy2 = make_proxy();
  ASSERT_TRUE(proxy2->select());
  ASSERT_TRUE(proxy2->current() == slow_ref_);
  try {
    proxy2->invoke("submit");
    FAIL() << "expected TimeoutError";
  } catch (const orb::TransportError& e) {
    EXPECT_TRUE(e.maybe_executed());
  }
  EXPECT_EQ(proxy2->binding_history().size(), 1u) << "no reselect for maybe-executed call";
  // Wait out the stalled dispatch, then confirm it ran exactly once: the
  // gate prevented a duplicate execution.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  EXPECT_EQ(submits_.load(), 1);
}

TEST_F(FailoverGateTest, RoutedOperationsFailOverOnlyWhenIdempotent) {
  // A route's own selection takes the preference winner — the slow server.
  auto proxy = make_proxy();
  proxy->route_operation("getvalue", "");
  EXPECT_EQ(proxy->invoke("getvalue").as_string(), "fast");
  EXPECT_TRUE(proxy->route_target("getvalue") == fast_ref_) << "route reselected";

  auto proxy2 = make_proxy();
  proxy2->route_operation("submit", "");
  expect_submit_surfaces_and_runs_once(*proxy2);
}

TEST_F(FailoverGateTest, BalancedInvocationsFailOverOnlyWhenIdempotent) {
  // Round robin starts at the first-ranked replica — the slow server.
  auto proxy = make_proxy("round_robin");
  EXPECT_EQ(proxy->invoke("getvalue").as_string(), "fast");

  auto proxy2 = make_proxy("round_robin");
  expect_submit_surfaces_and_runs_once(*proxy2);
}

// One deadline per logical call: when both replicas stall, the failover
// spends what the first attempt left of the budget (plus the short failover
// grace) instead of a fresh request_timeout, so the call gives up in about
// one timeout rather than one per attempt.
TEST(ProxyDeadlineTest, FailoverSpendsWhatTheFirstAttemptLeft) {
  Infrastructure infra{InfrastructureOptions{.name = "lbdl"}};
  trading::ServiceTypeDef type;
  type.name = "Svc";
  infra.trader().types().add(type);
  std::atomic<int> dispatched{0};
  std::vector<orb::OrbPtr> servers;
  for (int i = 0; i < 2; ++i) {
    auto server = orb::Orb::create(
        orb::OrbConfig{.name = "lbdl-srv" + std::to_string(i), .listen_tcp = true});
    auto slow = FunctionServant::make("Svc");
    slow->on("getvalue", [&dispatched](const ValueList&) {
      ++dispatched;
      std::this_thread::sleep_for(std::chrono::milliseconds(800));
      return Value("slow");
    });
    infra.trader().export_offer("Svc", server->register_servant(slow), {});
    servers.push_back(server);
  }
  constexpr double kRequestTimeout = 0.4;
  auto client =
      orb::Orb::create(orb::OrbConfig{.name = "lbdl-cli", .request_timeout = kRequestTimeout});
  SmartProxyConfig cfg;
  cfg.service_type = "Svc";
  cfg.monitor_property = "";
  auto proxy = SmartProxy::create(client, infra.trader().lookup_ref(), cfg);
  ASSERT_TRUE(proxy->select());

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(proxy->invoke("getvalue"), orb::TimeoutError);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(proxy->binding_history().size(), 2u) << "the call failed over once";
  // Two fresh budgets would take 2 x 0.4 s.
  EXPECT_LT(elapsed, kRequestTimeout * 1.5);
  EXPECT_GE(elapsed, kRequestTimeout);
  for (const auto& server : servers) server->shutdown();
  client->shutdown();
  EXPECT_EQ(dispatched.load(), 2) << "both replicas were asked";
}

}  // namespace
}  // namespace adapt::lb
