// End-to-end behavior of deadline propagation and admission control: nested
// invokes inherit the shrunken budget across hops, expired requests are
// rejected before the servant runs (counter-verified), Overloaded rejections
// are retried for any operation under the retry budget, critical traffic
// bypasses the admission queue, backoff sleeps never overshoot the caller's
// deadline, and the overload state is visible from Luma and as a monitor
// aspect.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "monitor/monitor.h"
#include "monitor/bindings.h"
#include "orb/admission.h"
#include "orb/orb.h"
#include "orb/script_bindings.h"
#include "script/engine.h"

namespace adapt::orb {
namespace {

double elapsed_seconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Servant reporting the dispatch deadline its handler observes, or -1 when
/// none was installed.
std::shared_ptr<FunctionServant> make_probe_servant() {
  auto servant = FunctionServant::make("Probe");
  servant->on("probe", [](const ValueList&) {
    const auto remaining = current_dispatch_remaining();
    return Value(remaining ? *remaining : -1.0);
  });
  return servant;
}

// ---- deadline inheritance --------------------------------------------------

TEST(OrbDeadlineTest, InprocNestedInvokeInheritsShrunkenBudget) {
  auto orb = Orb::create({.name = "nested-inproc"});
  const ObjectRef probe_ref = orb->register_servant(make_probe_servant(), "probe");

  auto outer = FunctionServant::make("Outer");
  // Raw pointer: a shared_ptr capture would cycle (orb -> servant -> orb).
  outer->on("relay", [orb = orb.get(), probe_ref](const ValueList&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    return orb->invoke(probe_ref, "probe", {});
  });
  const ObjectRef outer_ref = orb->register_servant(outer, "outer");

  InvokeOptions options;
  options.deadline = 1.0;
  const double seen = orb->invoke(outer_ref, "relay", {}, options).as_number();
  // The inner hop observed a live budget, shrunken by the outer hop's work.
  EXPECT_GT(seen, 0.0);
  EXPECT_LT(seen, 1.0 - 0.05);
}

TEST(OrbDeadlineTest, TwoHopTcpInvokeObservesShrunkenDeadline) {
  // leaf <-tcp- relay <-tcp- client, all opted into the v2 context tail.
  OrbConfig leaf_cfg;
  leaf_cfg.name = "leaf";
  leaf_cfg.listen_tcp = true;
  leaf_cfg.reactor_workers = 2;
  auto leaf = Orb::create(leaf_cfg);
  const ObjectRef probe_ref = leaf->register_servant(make_probe_servant(), "probe");

  OrbConfig relay_cfg;
  relay_cfg.name = "relay";
  relay_cfg.listen_tcp = true;
  relay_cfg.reactor_workers = 2;
  relay_cfg.propagate_wire_context = true;
  auto relay = Orb::create(relay_cfg);
  auto relay_servant = FunctionServant::make("Relay");
  relay_servant->on("relay", [relay = relay.get(), probe_ref](const ValueList&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    return relay->invoke(probe_ref, "probe", {});
  });
  const ObjectRef relay_ref = relay->register_servant(relay_servant, "relay");

  OrbConfig client_cfg;
  client_cfg.name = "client";
  client_cfg.propagate_wire_context = true;
  auto client = Orb::create(client_cfg);

  InvokeOptions options;
  options.deadline = 2.0;
  const double seen = client->invoke(relay_ref, "relay", {}, options).as_number();
  // The leaf saw a deadline (not -1), strictly below the original budget
  // minus the relay's work, and still positive.
  EXPECT_GT(seen, 0.0);
  EXPECT_LT(seen, 2.0 - 0.07);
  EXPECT_GT(seen, 0.5) << "two local hops should not eat most of a 2s budget";
}

TEST(OrbDeadlineTest, ExhaustedInheritedBudgetFailsFastBeforeSending) {
  auto orb = Orb::create({.name = "exhausted"});
  const ObjectRef probe_ref = orb->register_servant(make_probe_servant(), "probe");

  auto outer = FunctionServant::make("Outer");
  outer->on("overstay", [orb = orb.get(), probe_ref](const ValueList&) {
    // Sleep past the caller's whole budget, then try a nested call: the
    // invoke must fail immediately, before any request goes out.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    try {
      orb->invoke(probe_ref, "probe", {});
      return Value("reached-probe");
    } catch (const TimeoutError&) {
      return Value("failed-fast");
    }
  });
  const ObjectRef outer_ref = orb->register_servant(outer, "outer");

  InvokeOptions options;
  options.deadline = 0.05;
  EXPECT_EQ(orb->invoke(outer_ref, "overstay", {}, options).as_string(), "failed-fast");
  EXPECT_GE(orb->stats().timeouts, 1u);
}

TEST(OrbDeadlineTest, AsyncInvokeFromDispatchKeepsTheCallersDeadline) {
  // invoke_async runs on a helper thread: the dispatch deadline must travel
  // with it, or an async call made for a 0.2 s request gets the client's
  // whole request_timeout.
  OrbConfig slow_cfg;
  slow_cfg.name = "async-slow";
  slow_cfg.listen_tcp = true;
  slow_cfg.reactor_workers = 2;
  auto slow = Orb::create(slow_cfg);
  auto sleeper = FunctionServant::make("Sleeper");
  sleeper->on("nap", [](const ValueList&) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    return Value(true);
  });
  const ObjectRef nap_ref = slow->register_servant(sleeper, "sleeper");

  auto orb = Orb::create({.name = "async-relay", .request_timeout = 5.0});
  auto relay = FunctionServant::make("Relay");
  relay->on("relay", [orb = orb.get(), nap_ref](const ValueList&) {
    const auto start = std::chrono::steady_clock::now();
    std::string outcome = "completed";
    try {
      orb->invoke_async(nap_ref, "nap", {}).get();
    } catch (const TimeoutError&) {
      outcome = "timed-out";
    } catch (const Error& e) {
      outcome = e.what();
    }
    auto result = Table::make();
    result->set(Value("outcome"), Value(outcome));
    result->set(Value("elapsed"), Value(elapsed_seconds(start)));
    return Value(result);
  });
  const ObjectRef relay_ref = orb->register_servant(relay, "relay");

  InvokeOptions options;
  options.deadline = 0.2;
  const Value out = orb->invoke(relay_ref, "relay", {}, options);
  ASSERT_TRUE(out.is_table());
  EXPECT_EQ(out.as_table()->get(Value("outcome")).as_string(), "timed-out");
  EXPECT_LT(out.as_table()->get(Value("elapsed")).as_number(), 0.5);
  slow->shutdown();
}

// ---- pre-dispatch rejection (counter-verified) -----------------------------

TEST(OrbDeadlineTest, RequestExpiringInQueueIsRejectedBeforeServantRuns) {
  OrbConfig cfg;
  cfg.name = "expire-queue";
  cfg.max_in_flight_dispatches = 1;
  cfg.admission_queue_limit = 8;
  auto orb = Orb::create(cfg);

  std::atomic<int> work_runs{0};
  auto servant = FunctionServant::make("Work");
  servant->on("slow", [](const ValueList&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return Value(true);
  });
  servant->on("work", [&work_runs](const ValueList&) {
    ++work_runs;
    return Value(true);
  });
  const ObjectRef ref = orb->register_servant(servant, "w");

  // Saturate the single dispatch slot...
  std::thread holder([&] { orb->invoke(ref, "slow", {}); });
  while (orb->overload().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...then send a short-deadline request. It queues behind the slot and
  // its budget expires in the queue: rejected pre-dispatch, servant never
  // runs (inproc always carries the v2 deadline tail).
  InvokeOptions options;
  options.deadline = 0.05;
  EXPECT_THROW(orb->invoke(ref, "work", {}, options), DeadlineExceeded);
  holder.join();

  EXPECT_EQ(work_runs.load(), 0) << "expired request must not reach the servant";
  const OrbStats stats = orb->stats();
  EXPECT_GE(stats.requests_expired, 1u);
  EXPECT_GE(stats.overloads, 1u);  // client-observed side of the same event
  EXPECT_EQ(stats.requests_shed, 0u) << "expiry is not a shed";
}

// ---- Overloaded retries ----------------------------------------------------

/// Server with one dispatch slot and no queue: any request arriving while
/// the slot is busy is shed immediately.
struct ShedServer {
  OrbPtr orb;
  ObjectRef ref;
  std::string name;
  std::atomic<int> mutations{0};

  explicit ShedServer(const std::string& server_name) : name(server_name) {
    OrbConfig cfg;
    cfg.name = name;
    cfg.listen_tcp = true;
    cfg.reactor_workers = 4;
    cfg.max_in_flight_dispatches = 1;
    cfg.admission_queue_limit = 0;
    orb = Orb::create(cfg);
    auto servant = FunctionServant::make("Shed");
    servant->on("hold", [](const ValueList& a) {
      const int ms = a.empty() ? 150 : static_cast<int>(a[0].as_number());
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      return Value(true);
    });
    servant->on("mutate", [this](const ValueList&) {
      ++mutations;
      return Value("done");
    });
    ref = orb->register_servant(servant, "shed");
  }

  /// Occupies the single slot from a second client for `ms` milliseconds.
  std::thread occupy(int ms) {
    auto blocker = Orb::create({.name = name + "-blocker"});
    std::thread t([blocker, r = ref, ms] { blocker->invoke(r, "hold", {Value(double(ms))}); });
    while (orb->overload().in_flight == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return t;
  }
};

TEST(OrbDeadlineTest, OverloadedRetriesEvenNonIdempotentOperations) {
  ShedServer server("shed-retry");
  std::thread holder = server.occupy(150);

  // "mutate" is not idempotent — a TransportError would never be retried.
  // An Overloaded rejection is guaranteed pre-dispatch, so the client keeps
  // retrying (with backoff, paced by the retry budget) until the slot frees.
  auto client = Orb::create({.name = "shed-retry-client"});
  InvokeOptions options;
  options.retry = RetryPolicy{.max_attempts = 12, .initial_backoff = 0.04,
                              .backoff_multiplier = 1.5, .max_backoff = 0.1, .jitter = 0.0};
  EXPECT_EQ(client->invoke(server.ref, "mutate", {}, options).as_string(), "done");
  holder.join();

  EXPECT_EQ(server.mutations.load(), 1);
  const OrbStats client_stats = client->stats();
  EXPECT_GE(client_stats.overloads, 1u);
  EXPECT_GE(client_stats.retries, 1u);
  EXPECT_EQ(client_stats.transport_errors, 0u) << "sheds are not transport errors";
  EXPECT_GE(server.orb->stats().requests_shed, 1u);
  EXPECT_GT(server.orb->overload().shed_rate, 0.0);
}

TEST(OrbDeadlineTest, ExhaustedRetryBudgetSurfacesOverloadedImmediately) {
  ShedServer server("shed-budget");
  std::thread holder = server.occupy(200);

  // A zero-cap retry budget can never pay for a retry: the first shed
  // surfaces as Overloaded even though the policy allows 12 attempts.
  OrbConfig client_cfg;
  client_cfg.name = "shed-budget-client";
  client_cfg.retry_budget_cap = 0.0;
  auto client = Orb::create(client_cfg);
  InvokeOptions options;
  options.retry = RetryPolicy{.max_attempts = 12, .initial_backoff = 0.01,
                              .backoff_multiplier = 1.0, .max_backoff = 0.01, .jitter = 0.0};
  EXPECT_THROW(client->invoke(server.ref, "mutate", {}, options), Overloaded);
  holder.join();

  const OrbStats stats = client->stats();
  EXPECT_EQ(stats.overloads, 1u);
  EXPECT_EQ(stats.retries, 0u) << "no token, no retry";
  EXPECT_EQ(server.mutations.load(), 0);
}

// ---- criticality -----------------------------------------------------------

TEST(OrbDeadlineTest, CriticalBitBypassesFullAdmissionQueue) {
  ShedServer server("shed-critical");
  std::thread holder = server.occupy(250);

  OrbConfig client_cfg;
  client_cfg.name = "critical-client";
  client_cfg.propagate_wire_context = true;  // the critical bit rides the v2 tail
  auto client = Orb::create(client_cfg);
  InvokeOptions options;
  options.critical = true;
  // The slot is busy and the queue holds zero — yet the critical call is
  // admitted immediately, no retry loop involved.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(client->invoke(server.ref, "mutate", {}, options).as_string(), "done");
  EXPECT_LT(elapsed_seconds(start), 0.2);
  holder.join();

  EXPECT_EQ(client->stats().overloads, 0u);
  EXPECT_EQ(server.mutations.load(), 1);
}

TEST(OrbDeadlineTest, ServerSideCriticalOperationsCoverV1Clients) {
  ShedServer server("shed-v1-critical");
  std::thread holder = server.occupy(250);

  // A default client emits v1 frames (no critical bit on the wire) — the
  // server's Orb::is_critical classifies "_ping" as control traffic
  // anyway, so heartbeat-class operations from old clients survive overload.
  auto client = Orb::create({.name = "v1-critical-client"});
  EXPECT_TRUE(client->invoke(server.ref, "_ping", {}).truthy());
  holder.join();
  EXPECT_EQ(client->stats().overloads, 0u);
}

// ---- backoff clamp (satellite regression) ----------------------------------

TEST(OrbDeadlineTest, BackoffSleepsNeverOvershootTheDeadline) {
  // Dead endpoint: every attempt fails instantly with ECONNREFUSED, so the
  // elapsed time is pure backoff. An unclamped schedule would sleep
  // 0.2 + 0.4 = 0.6s; the clamp caps the total at the 0.35s budget.
  auto client = Orb::create({.name = "clamp-client"});
  std::string endpoint;
  {
    TcpListener probe("127.0.0.1", 0,
                      [](const Bytes&) -> std::optional<Bytes> { return std::nullopt; });
    endpoint = probe.endpoint();
  }
  ObjectRef ref{endpoint, "obj", ""};

  InvokeOptions options;
  options.idempotent = true;
  options.deadline = 0.35;
  options.retry = RetryPolicy{.max_attempts = 10, .initial_backoff = 0.2,
                              .backoff_multiplier = 2.0, .max_backoff = 5.0, .jitter = 0.0};
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client->invoke(ref, "_ping", {}, options), TimeoutError);
  const double total = elapsed_seconds(start);
  EXPECT_LE(total, 0.35 + 0.3) << "backoff sleeps must be clamped to the budget";
  EXPECT_GE(total, 0.3) << "the clamped backoff still uses the budget it has";
  EXPECT_GE(client->stats().timeouts, 1u);
  EXPECT_GE(client->stats().retries, 1u);
}

// ---- observability ---------------------------------------------------------

TEST(OrbDeadlineTest, OverloadStateVisibleFromLumaAndMonitorAspect) {
  ShedServer server("shed-visible");
  std::thread holder = server.occupy(200);

  auto client = Orb::create({.name = "visible-client"});
  EXPECT_THROW(client->invoke(server.ref, "mutate", {}), Overloaded);
  holder.join();

  // orb.overload() from Luma, on the server's own engine.
  auto engine = std::make_shared<script::ScriptEngine>();
  install_orb_bindings(*engine, server.orb);
  EXPECT_GE(engine->eval1("return orb.overload().shed").as_number(), 1.0);
  EXPECT_GT(engine->eval1("return orb.overload().shed_rate").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(engine->eval1("return orb.overload().max_in_flight").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(engine->eval1("return orb.overload().in_flight").as_number(), 0.0);

  // The same state as a BasicMonitor aspect, for event observers and
  // trader dynamic properties.
  auto mon = std::make_shared<monitor::BasicMonitor>("OverloadProbe", engine);
  monitor::install_overload_aspect(mon, server.orb);
  mon->update_now();  // aspects are cached; refresh like a timer tick would
  const Value aspect = mon->getAspectValue("overload");
  ASSERT_TRUE(aspect.is_table());
  EXPECT_GE(aspect.as_table()->get(Value("shed")).as_number(), 1.0);

  // The aspect degrades to nil once the ORB is gone (weak capture).
  server.orb->shutdown();
  server.orb.reset();
  mon->update_now();
  EXPECT_TRUE(mon->getAspectValue("overload").is_nil());
}

}  // namespace
}  // namespace adapt::orb
