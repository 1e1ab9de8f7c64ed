// SmartProxy tests: selection, fallback, invocation interception, event
// queueing/postponement, strategies (native and script), failover, rebinding.
#include "core/smart_proxy.h"

#include <gtest/gtest.h>

#include "core/infrastructure.h"
#include "obs/metrics.h"

namespace adapt::core {
namespace {

using orb::FunctionServant;

/// A server whose "whoami" returns its name; shared by most tests.
orb::ServantPtr named_server(const std::string& name) {
  auto servant = FunctionServant::make("Hello");
  servant->on("whoami", [name](const ValueList&) { return Value(name); });
  servant->on("hello", [](const ValueList&) { return Value(); });
  return servant;
}

class ProxyTest : public ::testing::Test {
 protected:
  ProxyTest() {
    trading::ServiceTypeDef type;
    type.name = "HelloService";
    type.properties = {{"LoadAvg", "number", trading::PropertyDef::Mode::Normal},
                       {"LoadAvgIncreasing", "string", trading::PropertyDef::Mode::Normal},
                       {"LoadAvgMonitor", "object", trading::PropertyDef::Mode::Normal},
                       {"Host", "string", trading::PropertyDef::Mode::Normal}};
    infra_.trader().types().add(type);
  }

  /// Deploys a named server on a fresh host; returns its provider ref.
  ObjectRef deploy(const std::string& host) {
    return infra_.deploy_server(host, "HelloService", named_server(host));
  }

  SmartProxyConfig default_config() {
    SmartProxyConfig cfg;
    cfg.service_type = "HelloService";
    cfg.constraint = "LoadAvg < 50 and LoadAvgIncreasing == 'no'";
    cfg.preference = "min LoadAvg";
    return cfg;
  }

  Infrastructure infra_{InfrastructureOptions{.name = "pt" + std::to_string(counter_++)}};
  static int counter_;
};

int ProxyTest::counter_ = 0;

TEST_F(ProxyTest, SelectsLeastLoadedServer) {
  deploy("host-a");
  deploy("host-b");
  infra_.host("host-a")->set_background_jobs(20.0);
  infra_.run_for(600.0);  // let load averages converge

  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-b");
}

TEST_F(ProxyTest, InvokeAutoSelects) {
  deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  EXPECT_FALSE(proxy->bound());
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-a");
  EXPECT_TRUE(proxy->bound());
  EXPECT_EQ(proxy->invocations(), 1u);
}

TEST_F(ProxyTest, NoOffersThrowsNoComponentAvailable) {
  auto proxy = infra_.make_proxy(default_config());
  EXPECT_FALSE(proxy->select());
  EXPECT_THROW(proxy->invoke("whoami"), NoComponentAvailable);
}

TEST_F(ProxyTest, FallbackToSortedQueryWhenConstraintFails) {
  // Paper SV: all servers violate the constraint; the proxy must still bind
  // using the sorting-only query.
  deploy("host-a");
  deploy("host-b");
  infra_.host("host-a")->set_background_jobs(80.0);
  infra_.host("host-b")->set_background_jobs(95.0);
  infra_.run_for(1200.0);

  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-a")
      << "fallback keeps the preference: least-loaded of the overloaded";
}

TEST_F(ProxyTest, StrictModeDoesNotFallBack) {
  deploy("host-a");
  infra_.host("host-a")->set_background_jobs(80.0);
  infra_.run_for(1200.0);
  SmartProxyConfig cfg = default_config();
  cfg.fallback_to_sorted = false;
  auto proxy = infra_.make_proxy(cfg);
  EXPECT_FALSE(proxy->select());
}

TEST_F(ProxyTest, CurrentOfferExposesProperties) {
  deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  const auto offer = proxy->current_offer();
  ASSERT_TRUE(offer.has_value());
  EXPECT_EQ(offer->service_type, "HelloService");
  EXPECT_EQ(offer->properties.at("Host").as_string(), "host-a");
  EXPECT_TRUE(offer->properties.at("LoadAvgMonitor").is_object());
}

TEST_F(ProxyTest, CurrentMonitorIsLive) {
  deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  auto mon = proxy->current_monitor();
  ASSERT_TRUE(mon.valid());
  const Value v = mon.getvalue();
  ASSERT_TRUE(v.is_table());
  EXPECT_EQ(mon.getAspectValue("increasing").as_string(), "no");
}

// ---- events & strategies ------------------------------------------------

TEST_F(ProxyTest, EventNotificationQueuesUntilNextInvocation) {
  deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  // Interest: the paper's Fig. 4 condition.
  proxy->add_interest("LoadIncrease", R"(function(observer, value, monitor)
    local incr
    incr = monitor:getAspectValue("increasing")
    return value[1] > 50 and incr == "yes"
  end)");
  int strategy_runs = 0;
  proxy->set_strategy("LoadIncrease", [&](SmartProxy&) { ++strategy_runs; });
  ASSERT_TRUE(proxy->select());

  // Load climbs past the threshold; the monitor ticks and notifies.
  infra_.host("host-a")->set_background_jobs(200.0);
  infra_.run_for(180.0);
  EXPECT_GE(proxy->pending_events(), 1u) << "event queued, not yet handled (D1)";
  EXPECT_EQ(strategy_runs, 0) << "postponed until the next service invocation";

  proxy->invoke("hello");
  EXPECT_GE(strategy_runs, 1);
  EXPECT_EQ(proxy->pending_events(), 0u);
}

TEST_F(ProxyTest, ImmediateHandlingWhenPostponementOff) {
  deploy("host-a");
  SmartProxyConfig cfg = default_config();
  cfg.postpone_events = false;
  auto proxy = infra_.make_proxy(cfg);
  proxy->add_interest("LoadIncrease",
                      "function(o, v, m) return v[1] > 50 end");
  int strategy_runs = 0;
  proxy->set_strategy("LoadIncrease", [&](SmartProxy&) { ++strategy_runs; });
  ASSERT_TRUE(proxy->select());
  infra_.host("host-a")->set_background_jobs(200.0);
  infra_.run_for(180.0);
  EXPECT_GE(strategy_runs, 1) << "handled on notification, no invocation needed";
  EXPECT_EQ(proxy->pending_events(), 0u);
}

TEST_F(ProxyTest, StrategyTriggersReselection) {
  deploy("host-a");
  deploy("host-b");
  auto proxy = infra_.make_proxy(default_config());
  proxy->add_interest("LoadIncrease",
                      "function(o, v, m) return v[1] > 50 end");
  proxy->set_strategy("LoadIncrease", [](SmartProxy& p) { p.select(); });
  ASSERT_TRUE(proxy->select());
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-a");

  infra_.host("host-a")->set_background_jobs(200.0);
  infra_.run_for(300.0);
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-b") << "proxy switched servers";
  EXPECT_GE(proxy->rebinds(), 2u);
  const auto history = proxy->binding_history();
  EXPECT_GE(history.size(), 2u);
}

TEST_F(ProxyTest, ScriptStrategyFig7Style) {
  deploy("host-a");
  deploy("host-b");
  auto proxy = infra_.make_proxy(default_config());
  proxy->add_interest("LoadIncrease",
                      "function(o, v, m) return v[1] > 50 end");
  // The paper's Fig. 7, near verbatim: reselect or relax.
  proxy->eval_strategy_script(R"(
    smartproxy._strategies = {
      LoadIncrease = function(self)
        -- get the current load average
        self._loadavg = self._loadavgmon:getvalue()
        -- look for an alternative server
        local query
        query = "LoadAvg < 50 and LoadAvgIncreasing == 'no' "
        if not self:_select(query) then
          self._loadavgmon:attachEventObserver(
            self._observer,
            "LoadIncrease",
            [[function(observer, value, monitor)
              local incr
              incr = monitor:getAspectValue("increasing")
              return value[1] > 70 and incr == "yes"
            end]])
        end
      end
    }
  )");
  ASSERT_TRUE(proxy->select());
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-a");
  infra_.host("host-a")->set_background_jobs(200.0);
  infra_.run_for(300.0);
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-b");
  // The strategy stored the load average it saw in self._loadavg.
  const Value seen = proxy->script_self().as_table()->get(Value("_loadavg"));
  EXPECT_TRUE(seen.is_table());
}

TEST_F(ProxyTest, Fig7RelaxationPathRaisesThreshold) {
  // Single overloaded server: _select fails, so the strategy re-attaches
  // with the relaxed 70-threshold predicate (Fig. 7 lines 10-17).
  deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  proxy->add_interest("LoadIncrease",
                      "function(o, v, m) return v[1] > 50 end");
  proxy->eval_strategy_script(R"(
    relaxations = 0
    smartproxy._strategies = {
      LoadIncrease = function(self)
        if not self:_select("LoadAvg < 50 and LoadAvgIncreasing == 'no'") then
          relaxations = relaxations + 1
          self._loadavgmon:attachEventObserver(
            self._observer, "LoadIncrease",
            [[function(o, v, m) return v[1] > 70 end]])
        end
      end
    }
  )");
  ASSERT_TRUE(proxy->select());
  infra_.host("host-a")->set_background_jobs(60.0);
  infra_.run_for(300.0);
  proxy->invoke("hello");
  EXPECT_GE(proxy->engine()->get_global("relaxations").as_number(), 1.0);
}

TEST_F(ProxyTest, DeclarativeStrategyReselects) {
  // Paper SVI: simple strategies as data, not code.
  deploy("host-a");
  deploy("host-b");
  auto proxy = infra_.make_proxy(default_config());
  proxy->add_interest("LoadIncrease", "function(o, v, m) return v[1] > 50 end");
  proxy->eval_strategy_script(R"(
    smartproxy._strategies = {
      LoadIncrease = {
        reselect = "LoadAvg < 50 and LoadAvgIncreasing == 'no'",
        set = { last_event = "LoadIncrease" },
      }
    }
  )");
  ASSERT_TRUE(proxy->select());
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-a");
  infra_.host("host-a")->set_background_jobs(200.0);
  infra_.run_for(300.0);
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-b");
  EXPECT_EQ(proxy->script_self().as_table()->get(Value("last_event")).as_string(),
            "LoadIncrease");
}

TEST_F(ProxyTest, DeclarativeStrategyRelaxesOnFailure) {
  // Single overloaded server: the declarative fallback re-attaches with the
  // relaxed predicate (the Fig. 7 behavior, zero lines of procedural code).
  deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  proxy->add_interest("LoadIncrease", "function(o, v, m) return v[1] > 50 end");
  proxy->eval_strategy_script(R"(
    smartproxy._strategies = {
      LoadIncrease = {
        reselect = "LoadAvg < 50 and LoadAvgIncreasing == 'no'",
        on_failure_attach = {
          event = "LoadIncrease",
          predicate = [[function(o, v, m) return v[1] > 70 end]],
        },
      }
    }
  )");
  ASSERT_TRUE(proxy->select());
  auto mon_servant = std::dynamic_pointer_cast<monitor::EventMonitor>(
      infra_.host_orb("host-a")->find_servant(
          proxy->current_monitor().ref().object_id));
  ASSERT_TRUE(mon_servant);
  const size_t observers_before = mon_servant->observer_count();
  infra_.host("host-a")->set_background_jobs(60.0);
  infra_.run_for(300.0);
  proxy->invoke("hello");
  EXPECT_GT(mon_servant->observer_count(), observers_before)
      << "relaxed predicate attached after the failed reselect";
}

TEST_F(ProxyTest, StrategyCodeReplaceableAtRuntime) {
  deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  proxy->set_strategy_code("Ev", "function(self) mark = 'v1' end");
  proxy->enqueue_event("Ev");
  proxy->handle_pending_events();
  EXPECT_EQ(proxy->engine()->get_global("mark").as_string(), "v1");
  proxy->set_strategy_code("Ev", "function(self) mark = 'v2' end");
  proxy->enqueue_event("Ev");
  proxy->handle_pending_events();
  EXPECT_EQ(proxy->engine()->get_global("mark").as_string(), "v2");
}

TEST_F(ProxyTest, ScriptStrategyTakesPrecedenceOverNative) {
  deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  int native_runs = 0;
  proxy->set_strategy("Ev", [&](SmartProxy&) { ++native_runs; });
  proxy->set_strategy_code("Ev", "function(self) script_ran = true end");
  proxy->enqueue_event("Ev");
  proxy->handle_pending_events();
  EXPECT_EQ(native_runs, 0);
  EXPECT_TRUE(proxy->engine()->get_global("script_ran").as_bool());
}

TEST_F(ProxyTest, UnknownEventIsCountedButHarmless) {
  deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  proxy->enqueue_event("NobodyListens");
  proxy->handle_pending_events();
  EXPECT_EQ(proxy->events_handled(), 1u);
}

TEST_F(ProxyTest, FailingStrategyDoesNotBreakInvocation) {
  deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  proxy->set_strategy_code("Bad", "function(self) error('strategy bug') end");
  proxy->enqueue_event("Bad");
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-a");
}

TEST_F(ProxyTest, StrategyCanInvokeThroughProxyWithoutDeadlock) {
  deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  proxy->set_strategy_code("Probe",
                           "function(self) probed = self:invoke('whoami') end");
  proxy->enqueue_event("Probe");
  proxy->invoke("hello");
  EXPECT_EQ(proxy->engine()->get_global("probed").as_string(), "host-a");
}

// ---- superseded events -----------------------------------------------------

uint64_t superseded_count() {
  return obs::metrics().counter("proxy.events_superseded").value();
}

/// Delivers `event_id` the way a monitor registration does: a notifyEvent
/// on the proxy's observer.
void notify(SmartProxy& proxy, const std::string& event_id) {
  proxy.orb()->invoke(proxy.observer_ref(), "notifyEvent", {Value(event_id)});
}

TEST_F(ProxyTest, EventsQueuedBeforeARebindAreSuperseded) {
  deploy("host-a");
  deploy("host-b");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  ASSERT_EQ(proxy->invoke("whoami").as_string(), "host-a");
  int strategy_runs = 0;
  proxy->set_strategy("LoadIncrease", [&](SmartProxy& p) {
    ++strategy_runs;
    p.select("Host == 'host-b'");
  });
  // Both monitor updates of a step fired under the binding to host-a.
  notify(*proxy, "LoadIncrease");
  notify(*proxy, "LoadIncrease");
  ASSERT_EQ(proxy->pending_events(), 2u);
  const uint64_t superseded = superseded_count();
  const uint64_t handled = proxy->events_handled();

  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-b");
  EXPECT_EQ(strategy_runs, 1) << "the rebind already answered the second event";
  EXPECT_EQ(superseded_count(), superseded + 1);
  EXPECT_EQ(proxy->events_handled(), handled + 1);
  EXPECT_EQ(proxy->pending_events(), 0u);
}

TEST_F(ProxyTest, EventsRunWhenTheStrategyDoesNotRebind) {
  // The Fig. 7 relaxation path: the reselect finds nothing, the binding
  // stands, so every queued event still runs its strategy.
  deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  int strategy_runs = 0;
  proxy->set_strategy("LoadIncrease", [&](SmartProxy& p) {
    ++strategy_runs;
    EXPECT_FALSE(p.select("LoadAvg < 0"));
  });
  notify(*proxy, "LoadIncrease");
  notify(*proxy, "LoadIncrease");
  const uint64_t superseded = superseded_count();
  const uint64_t handled = proxy->events_handled();

  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-a");
  EXPECT_EQ(strategy_runs, 2);
  EXPECT_EQ(superseded_count(), superseded);
  EXPECT_EQ(proxy->events_handled(), handled + 2);
}

TEST_F(ProxyTest, EventQueuedAfterARebindRuns) {
  deploy("host-a");
  deploy("host-b");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  int strategy_runs = 0;
  proxy->set_strategy("Ev", [&](SmartProxy&) { ++strategy_runs; });
  const uint64_t superseded = superseded_count();
  notify(*proxy, "Ev");                         // about host-a
  ASSERT_TRUE(proxy->select("Host == 'host-b'"));
  EXPECT_EQ(superseded_count(), superseded + 1);
  notify(*proxy, "Ev");                         // about host-b

  proxy->handle_pending_events();
  EXPECT_EQ(strategy_runs, 1);

  // Selecting the provider already bound is no rebind: nothing is dropped.
  notify(*proxy, "Ev");
  ASSERT_TRUE(proxy->select("Host == 'host-b'"));
  proxy->handle_pending_events();
  EXPECT_EQ(strategy_runs, 2);
  EXPECT_EQ(superseded_count(), superseded + 1);
}

TEST_F(ProxyTest, ExplicitActivationsOutliveARebind) {
  // enqueue_event is explicit strategy activation (paper SIV-A), not a
  // report from the monitor the proxy leaves, so a rebind keeps it queued.
  deploy("host-a");
  deploy("host-b");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  int moves = 0;
  int probes = 0;
  proxy->set_strategy("LoadIncrease", [&](SmartProxy& p) {
    ++moves;
    p.select("Host == 'host-b'");
  });
  proxy->set_strategy("Probe", [&](SmartProxy&) { ++probes; });
  notify(*proxy, "LoadIncrease");
  proxy->enqueue_event("Probe");
  notify(*proxy, "LoadIncrease");
  proxy->enqueue_event("Probe");
  const uint64_t superseded = superseded_count();

  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-b");
  EXPECT_EQ(moves, 1);
  EXPECT_EQ(probes, 2);
  EXPECT_EQ(superseded_count(), superseded + 1);
}

TEST_F(ProxyTest, FailoverSupersedesEventsQueuedForTheFailedComponent) {
  // host-a is the only offer; it dies and its offer is withdrawn, so the
  // failover drops the binding and finds nothing to rebind to. Only
  // unbind_failed can have dropped the second event.
  const ObjectRef a = deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  int strategy_runs = 0;
  proxy->set_strategy("Probe", [&](SmartProxy& p) {
    ++strategy_runs;
    p.invoke("whoami");  // fails over, then throws: nothing is left
  });
  notify(*proxy, "Probe");
  notify(*proxy, "Probe");
  infra_.trader().withdraw_provider(a);
  infra_.host_orb("host-a")->unregister_servant(a.object_id);
  const uint64_t superseded = superseded_count();

  proxy->handle_pending_events();
  EXPECT_FALSE(proxy->bound());
  EXPECT_EQ(strategy_runs, 1);
  EXPECT_EQ(superseded_count(), superseded + 1);
}

TEST_F(ProxyTest, SelectAsksForOneOfferUnlessAFailedProviderIsAvoided) {
  // A stub Lookup that ranks server-a first, honours return_card and
  // records the return_card of every query.
  auto orb = infra_.make_orb("stub-market");
  const ObjectRef a = orb->register_servant(named_server("server-a"));
  const ObjectRef b = orb->register_servant(named_server("server-b"));
  std::vector<size_t> cards;
  auto lookup = FunctionServant::make("Lookup");
  lookup->on("query", [&](const ValueList& args) {
    const size_t card = trading::Trader::policies_from_value(args.at(4)).return_card;
    cards.push_back(card);
    auto out = Table::make();
    for (const ObjectRef& provider : {a, b}) {
      if (static_cast<size_t>(out->length()) >= card) break;
      trading::OfferInfo info;
      info.offer_id = provider.object_id;
      info.service_type = "HelloService";
      info.provider = provider;
      out->append(trading::Trader::offer_info_to_value(std::move(info)));
    }
    return Value(std::move(out));
  });
  auto proxy = SmartProxy::create(orb, orb->register_servant(lookup), default_config());

  ASSERT_TRUE(proxy->select());
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "server-a");
  ASSERT_EQ(cards, std::vector<size_t>{1});

  // server-a dies: the failover must see past it to server-b.
  orb->unregister_servant(a.object_id);
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "server-b");
  ASSERT_EQ(cards.size(), 2u);
  EXPECT_EQ(cards[1], trading::LookupPolicies{}.return_card);

  // Bound again to a live provider, a plain select asks for one offer.
  ASSERT_TRUE(proxy->select());
  EXPECT_EQ(cards.back(), 1u);
}

// ---- rebinding mechanics ---------------------------------------------------

TEST_F(ProxyTest, RebindMovesObserverRegistration) {
  const ObjectRef a = deploy("host-a");
  deploy("host-b");
  auto proxy = infra_.make_proxy(default_config());
  proxy->add_interest("LoadIncrease", "function(o, v, m) return false end");
  ASSERT_TRUE(proxy->select());

  // Count observers on each host's monitor via the agents.
  auto mon_a = infra_.agent("host-a");
  (void)a;
  auto monitor_a = proxy->current_monitor();
  ASSERT_TRUE(monitor_a.valid());

  infra_.host("host-a")->set_background_jobs(200.0);
  infra_.run_for(600.0);
  ASSERT_TRUE(proxy->select());  // explicitly reselect to host-b
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-b");
  auto monitor_b = proxy->current_monitor();
  ASSERT_TRUE(monitor_b.valid());
  EXPECT_NE(monitor_a.ref().object_id, monitor_b.ref().object_id)
      << "proxy now observes the new component's monitor";
}

TEST_F(ProxyTest, FailoverOnDeadComponent) {
  const ObjectRef a = deploy("host-a");
  deploy("host-b");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-a");

  // host-a's server dies (servant unregistered).
  infra_.host_orb("host-a")->unregister_servant(a.object_id);
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-b") << "transparent failover";
}

TEST_F(ProxyTest, FailoverDetachesFromTheFailedComponentsMonitor) {
  const ObjectRef a = deploy("host-a");
  deploy("host-b");
  auto proxy = infra_.make_proxy(default_config());
  proxy->add_interest("LoadIncrease", "function(o, v, m) return false end");
  ASSERT_TRUE(proxy->select());
  ASSERT_TRUE(proxy->current() == a);
  const ObjectRef old_monitor = proxy->current_monitor().ref();
  ASSERT_FALSE(old_monitor.empty());
  const auto observers = [&] {
    return proxy->orb()->invoke(old_monitor, "observerCount").as_number();
  };
  const double before = observers();

  // host-a's server dies but its monitor lives on: after the failover the
  // proxy must no longer observe it, exactly as after a strategy rebind.
  infra_.host_orb("host-a")->unregister_servant(a.object_id);
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "host-b");
  EXPECT_EQ(observers(), before - 1);
}

TEST_F(ProxyTest, FailoverDisabledPropagatesError) {
  const ObjectRef a = deploy("host-a");
  SmartProxyConfig cfg = default_config();
  cfg.auto_failover = false;
  auto proxy = infra_.make_proxy(cfg);
  ASSERT_TRUE(proxy->select());
  infra_.host_orb("host-a")->unregister_servant(a.object_id);
  EXPECT_THROW(proxy->invoke("whoami"), orb::ObjectNotFound);
}

TEST_F(ProxyTest, FailoverWithNoAlternativeThrows) {
  const ObjectRef a = deploy("host-a");
  auto proxy = infra_.make_proxy(default_config());
  ASSERT_TRUE(proxy->select());
  infra_.host_orb("host-a")->unregister_servant(a.object_id);
  // The stale offer still points at the dead server; selection avoids the
  // failed provider but there is nothing else.
  EXPECT_THROW(proxy->invoke("whoami"), Error);
}

TEST_F(ProxyTest, ConfigValidation) {
  EXPECT_THROW(SmartProxy::create(nullptr, infra_.lookup_ref(), default_config()), Error);
  auto orb = infra_.make_orb("cfg-client");
  EXPECT_THROW(SmartProxy::create(orb, ObjectRef{}, default_config()), Error);
  SmartProxyConfig cfg;
  EXPECT_THROW(SmartProxy::create(orb, infra_.lookup_ref(), cfg), Error);
}

}  // namespace
}  // namespace adapt::core
