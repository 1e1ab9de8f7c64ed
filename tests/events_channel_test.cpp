// EventChannel tests: decoupled pub/sub fan-out (delivery + batching, the
// v1 notifyEvent wire-compat fallback, the backpressure-policy matrix,
// dead-subscriber eviction, last-value replay, subscribe/unsubscribe churn
// under sustained publishes) plus the monitor channel-publication mode,
// monitor dead-observer reaping, and the SmartProxy channel subscription.
#include "events/event_channel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/infrastructure.h"
#include "core/smart_proxy.h"
#include "events/script_bindings.h"
#include "monitor/monitor.h"
#include "obs/metrics.h"
#include "script/engine.h"

namespace adapt::events {
namespace {

using orb::FunctionServant;
using orb::Orb;
using orb::OrbPtr;

/// Polls `pred` until true or the deadline passes. Channel delivery runs on
/// real threads, so tests wait on observable state instead of sleeping.
bool wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// An EventObserver servant recording deliveries, with an optional gate that
/// blocks the delivery thread inside the observer (to pile events up behind
/// an in-flight delivery). The state block is shared with the servant
/// lambdas, so a delivery thread still inside the observer when the Recorder
/// goes out of scope never touches freed memory.
class Recorder {
 public:
  /// `batch` controls whether the servant implements notifyEvents (v2) or
  /// only the paper's v1 notifyEvent.
  explicit Recorder(bool batch = true)
      : batch_(batch), st_(std::make_shared<State>()) {}

  orb::ServantPtr servant() {
    auto st = st_;
    auto s = FunctionServant::make("EventObserver");
    s->on("notifyEvent", [st](const ValueList& args) {
      st->pass_gate();
      st->record(args.empty() ? std::string() : args.at(0).as_string(), Value());
      ++st->single_calls;
      return Value();
    });
    if (batch_) {
      s->on("notifyEvents", [st](const ValueList& args) {
        st->pass_gate();
        const TablePtr& list = args.at(0).as_table();
        for (int64_t i = 1; i <= list->length(); ++i) {
          const Value entry = list->geti(i);
          st->record(entry.as_table()->get(Value("event")).as_string(),
                     entry.as_table()->get(Value("payload")));
        }
        {
          std::scoped_lock lock(st->mu);
          st->batch_sizes.push_back(static_cast<size_t>(list->length()));
        }
        return Value();
      });
    }
    return s;
  }

  void close_gate() {
    std::scoped_lock lock(st_->gate_mu);
    st_->open = false;
  }
  void open_gate() {
    {
      std::scoped_lock lock(st_->gate_mu);
      st_->open = true;
    }
    st_->gate_cv.notify_all();
  }
  /// True once a delivery thread is blocked (or has passed) inside the
  /// observer — i.e. the in-flight delivery has left the subscriber queue.
  bool entered() const { return st_->entered.load(); }

  size_t count() const {
    std::scoped_lock lock(st_->mu);
    return st_->events.size();
  }
  std::vector<std::string> events() const {
    std::scoped_lock lock(st_->mu);
    return st_->events;
  }
  Value payload_at(size_t i) const {
    std::scoped_lock lock(st_->mu);
    return st_->payloads.at(i);
  }
  std::vector<size_t> batch_sizes() const {
    std::scoped_lock lock(st_->mu);
    return st_->batch_sizes;
  }
  int single_calls() const { return st_->single_calls.load(); }

 private:
  struct State {
    void pass_gate() {
      entered.store(true);
      std::unique_lock lock(gate_mu);
      gate_cv.wait(lock, [this] { return open; });
    }
    void record(const std::string& evid, const Value& payload) {
      std::scoped_lock lock(mu);
      events.push_back(evid);
      payloads.push_back(payload);
    }

    mutable std::mutex mu;
    std::vector<std::string> events;
    std::vector<Value> payloads;
    std::vector<size_t> batch_sizes;
    std::atomic<int> single_calls{0};
    std::atomic<bool> entered{false};
    std::mutex gate_mu;
    std::condition_variable gate_cv;
    bool open = true;
  };

  bool batch_;
  std::shared_ptr<State> st_;
};

class EventChannelTest : public ::testing::Test {
 protected:
  EventChannelTest() : orb_(Orb::create()) {}
  ~EventChannelTest() override {
    if (channel_) channel_->shutdown();
  }

  EventChannelPtr make_channel(EventChannelConfig cfg = {}) {
    channel_ = EventChannel::create(orb_, std::move(cfg));
    return channel_;
  }

  OrbPtr orb_;
  EventChannelPtr channel_;
};

// ---- options & IDL ---------------------------------------------------------

TEST_F(EventChannelTest, BackpressureNamesRoundTrip) {
  EXPECT_EQ(backpressure_from_name("drop_oldest"), Backpressure::DropOldest);
  EXPECT_EQ(backpressure_from_name("drop_newest"), Backpressure::DropNewest);
  EXPECT_EQ(backpressure_from_name("block"), Backpressure::Block);
  EXPECT_STREQ(backpressure_name(Backpressure::Block), "block");
  EXPECT_THROW((void)backpressure_from_name("bogus"), EventChannelError);
}

TEST_F(EventChannelTest, SubscribeOptionsFromValue) {
  auto t = Table::make();
  t->set(Value("capacity"), Value(8.0));
  t->set(Value("policy"), Value("drop_newest"));
  t->set(Value("replay"), Value(true));
  t->set(Value("max_failures"), Value(7.0));
  auto evs = Table::make();
  evs->append(Value("load.high"));
  t->set(Value("events"), Value(evs));

  const SubscribeOptions opts = SubscribeOptions::from_value(Value(t));
  EXPECT_EQ(opts.queue_capacity, 8u);
  EXPECT_EQ(opts.policy, Backpressure::DropNewest);
  EXPECT_TRUE(opts.replay_last);
  EXPECT_EQ(opts.max_failures, 7);
  ASSERT_EQ(opts.events.size(), 1u);
  EXPECT_EQ(opts.events[0], "load.high");

  const SubscribeOptions defaults = SubscribeOptions::from_value(Value());
  EXPECT_EQ(defaults.queue_capacity, 256u);
  EXPECT_EQ(defaults.policy, Backpressure::DropOldest);

  auto bad = Table::make();
  bad->set(Value("policy"), Value("sometimes"));
  EXPECT_THROW(SubscribeOptions::from_value(Value(bad)), EventChannelError);

  // Options survive a to_value/from_value round trip (the wire form).
  const SubscribeOptions again = SubscribeOptions::from_value(opts.to_value());
  EXPECT_EQ(again.queue_capacity, 8u);
  EXPECT_EQ(again.policy, Backpressure::DropNewest);
}

TEST_F(EventChannelTest, DefinesBatchedObserverIdl) {
  orb::InterfaceRepository repo;
  define_event_interfaces(repo);
  const auto batched = repo.find_operation("EventObserver", "notifyEvents");
  ASSERT_TRUE(batched.has_value()) << "v2 observer contract missing";
  EXPECT_TRUE(batched->oneway);
  EXPECT_TRUE(repo.find_operation("EventObserver", "notifyEvent").has_value());
  EXPECT_TRUE(repo.find_operation("EventChannel", "publish").has_value());
  EXPECT_TRUE(repo.find_operation("EventChannel", "subscribe").has_value());
}

// ---- delivery --------------------------------------------------------------

TEST_F(EventChannelTest, DeliversBatchedWithPayloads) {
  auto channel = make_channel();
  Recorder rec;
  const ObjectRef ref = orb_->register_servant(rec.servant());
  channel->subscribe(ref);

  EXPECT_TRUE(channel->publish("load.high", Value(87.0)));
  EXPECT_TRUE(channel->publish("load.high", Value(92.0)));
  EXPECT_TRUE(channel->publish("deploy.start", Value("eu")));
  ASSERT_TRUE(wait_until([&] { return rec.count() == 3; }));

  EXPECT_EQ(rec.events(), (std::vector<std::string>{"load.high", "load.high",
                                                    "deploy.start"}));
  EXPECT_DOUBLE_EQ(rec.payload_at(1).as_number(), 92.0);
  EXPECT_EQ(rec.payload_at(2).as_string(), "eu");
  EXPECT_EQ(rec.single_calls(), 0) << "v2 observer must get batched calls";

  const ChannelStats stats = channel->stats();
  EXPECT_EQ(stats.published, 3u);
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.subscribers, 1u);
}

TEST_F(EventChannelTest, PublishSnapshotsTablePayloads) {
  auto channel = make_channel();
  Recorder rec;
  channel->subscribe(orb_->register_servant(rec.servant()));

  auto payload = Table::make();
  payload->set(Value("n"), Value(1.0));
  EXPECT_TRUE(channel->publish("cfg", Value(payload)));
  // The publisher keeps mutating its table after publish; the subscriber
  // must see the value as of publish time (wire-codec snapshot).
  payload->set(Value("n"), Value(2.0));

  ASSERT_TRUE(wait_until([&] { return rec.count() == 1; }));
  EXPECT_DOUBLE_EQ(rec.payload_at(0).as_table()->get(Value("n")).as_number(), 1.0);
}

TEST_F(EventChannelTest, CoalescesBacklogIntoOneBatch) {
  auto channel = make_channel();
  Recorder rec;
  rec.close_gate();
  channel->subscribe(orb_->register_servant(rec.servant()));

  // First event goes in flight and blocks inside the observer...
  channel->publish("e0", Value());
  ASSERT_TRUE(wait_until([&] { return rec.entered(); }));
  // ...while four more pile up in the subscriber queue behind it.
  for (int i = 1; i <= 4; ++i) channel->publish("e" + std::to_string(i), Value());
  ASSERT_TRUE(wait_until([&] { return channel->stats().queued == 4; }));

  rec.open_gate();
  ASSERT_TRUE(wait_until([&] { return rec.count() == 5; }));
  // The backlog must drain as one notifyEvents call, not four.
  const auto sizes = rec.batch_sizes();
  ASSERT_EQ(sizes.size(), 2u) << "expected probe batch + one coalesced batch";
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 4u);
  EXPECT_EQ(channel->stats().batches, 2u);
}

TEST_F(EventChannelTest, V1ObserverFallsBackToPerEventOneway) {
  // The paper's Fig. 4 observer implements only notifyEvent. Pin the v1
  // contract in the interface repository so the batch probe fails
  // client-side validation, exactly as against an old peer.
  orb_->interfaces().define_idl(
      "interface EventObserver { oneway void notifyEvent(string evid); };");
  auto channel = make_channel();
  Recorder rec(/*batch=*/false);
  channel->subscribe(orb_->register_servant(rec.servant()));

  for (int i = 0; i < 3; ++i) channel->publish("tick", Value(double(i)));
  ASSERT_TRUE(wait_until([&] { return rec.count() == 3; }));

  EXPECT_EQ(rec.single_calls(), 3) << "must downgrade to per-event notifyEvent";
  EXPECT_TRUE(rec.batch_sizes().empty());
  const ChannelStats stats = channel->stats();
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.evicted, 0u) << "fallback is not a delivery failure";
  EXPECT_EQ(channel->subscriber_count(), 1u);
}

// ---- backpressure matrix ---------------------------------------------------

class BackpressureTest : public EventChannelTest {
 protected:
  /// Blocks the delivery thread on event e0, publishes e1..e4 against a
  /// capacity-2 queue, releases, and returns the delivered event ids.
  std::vector<std::string> run_policy(Backpressure policy) {
    auto channel = make_channel();
    rec_.close_gate();
    channel->subscribe(orb_->register_servant(rec_.servant()),
                       SubscribeOptions{.queue_capacity = 2, .policy = policy});

    channel->publish("e0", Value());
    EXPECT_TRUE(wait_until([&] { return rec_.entered(); }));
    for (int i = 1; i <= 4; ++i) channel->publish("e" + std::to_string(i), Value());
    if (policy == Backpressure::Block) {
      // The router stalls with the queue full; nothing may be dropped.
      EXPECT_TRUE(wait_until([&] { return channel->stats().queued == 2; }));
    } else {
      EXPECT_TRUE(wait_until([&] { return channel->stats().dropped == 2; }));
    }

    rec_.open_gate();
    const size_t expect = policy == Backpressure::Block ? 5u : 3u;
    EXPECT_TRUE(wait_until([&] { return rec_.count() == expect; }));
    return rec_.events();
  }

  Recorder rec_;
};

TEST_F(BackpressureTest, DropOldestKeepsNewestEvents) {
  EXPECT_EQ(run_policy(Backpressure::DropOldest),
            (std::vector<std::string>{"e0", "e3", "e4"}));
  EXPECT_EQ(channel_->stats().dropped, 2u);
}

TEST_F(BackpressureTest, DropNewestKeepsOldestEvents) {
  EXPECT_EQ(run_policy(Backpressure::DropNewest),
            (std::vector<std::string>{"e0", "e1", "e2"}));
  EXPECT_EQ(channel_->stats().dropped, 2u);
}

TEST_F(BackpressureTest, BlockDeliversEverything) {
  EXPECT_EQ(run_policy(Backpressure::Block),
            (std::vector<std::string>{"e0", "e1", "e2", "e3", "e4"}));
  EXPECT_EQ(channel_->stats().dropped, 0u);
}

// ---- replay & filtering ----------------------------------------------------

TEST_F(EventChannelTest, LateJoinerReplaysLastValueAndFilters) {
  auto channel = make_channel();
  channel->publish("load", Value(40.0));
  channel->publish("load", Value(85.0));
  channel->publish("other", Value("x"));
  ASSERT_TRUE(wait_until([&] { return channel->stats().inbox_depth == 0 &&
                                      channel->stats().published == 3; }));
  EXPECT_DOUBLE_EQ(channel->last_value("load").as_number(), 85.0);
  EXPECT_TRUE(channel->last_value("never").is_nil());

  Recorder rec;
  channel->subscribe(orb_->register_servant(rec.servant()),
                     SubscribeOptions{.events = {"load"}, .replay_last = true});
  // Replay delivers the last `load` value; `other` is filtered out.
  ASSERT_TRUE(wait_until([&] { return rec.count() == 1; }));
  EXPECT_DOUBLE_EQ(rec.payload_at(0).as_number(), 85.0);

  channel->publish("other", Value("y"));
  channel->publish("load", Value(91.0));
  ASSERT_TRUE(wait_until([&] { return rec.count() == 2; }));
  EXPECT_EQ(rec.events(), (std::vector<std::string>{"load", "load"}));
}

// ---- lifecycle -------------------------------------------------------------

TEST_F(EventChannelTest, UnsubscribeStopsDeliveryAndJoins) {
  auto channel = make_channel();
  Recorder rec;
  const std::string id = channel->subscribe(orb_->register_servant(rec.servant()));
  channel->publish("before", Value());
  ASSERT_TRUE(wait_until([&] { return rec.count() == 1; }));

  channel->unsubscribe(id);  // wait=true: delivery thread joined
  EXPECT_EQ(channel->subscriber_count(), 0u);
  channel->publish("after", Value());
  ASSERT_TRUE(wait_until([&] { return channel->stats().inbox_depth == 0 &&
                                      channel->stats().published == 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rec.count(), 1u) << "no delivery after unsubscribe returned";

  EXPECT_THROW(channel->unsubscribe(id), EventChannelError);
  EXPECT_THROW(channel->unsubscribe("nope"), EventChannelError);
}

TEST_F(EventChannelTest, ShutdownRejectsFurtherUse) {
  auto channel = make_channel();
  Recorder rec;
  channel->subscribe(orb_->register_servant(rec.servant()));
  channel->shutdown();
  channel->shutdown();  // idempotent
  EXPECT_FALSE(channel->publish("late", Value()));
  EXPECT_THROW(channel->subscribe(orb_->register_servant(rec.servant())),
               EventChannelError);
  EXPECT_EQ(channel->subscriber_count(), 0u);
}

// ---- eviction --------------------------------------------------------------

TEST_F(EventChannelTest, EvictsSubscriberAfterConsecutiveFailures) {
  auto channel = make_channel();
  auto failing = FunctionServant::make("EventObserver");
  failing->on("notifyEvents",
              [](const ValueList&) -> Value { throw Error("observer crashed"); });
  failing->on("notifyEvent",
              [](const ValueList&) -> Value { throw Error("observer crashed"); });
  const uint64_t before = obs::metrics().counter("events.subscriber.evicted").value();

  channel->subscribe(orb_->register_servant(failing),
                     SubscribeOptions{.max_failures = 2});
  // Each publish-drain cycle is one failed batch; the second consecutive
  // failure must evict. Publish one at a time so failures are countable.
  for (int i = 0; i < 10 && channel->subscriber_count() > 0; ++i) {
    channel->publish("tick", Value());
    wait_until([&] {
      const ChannelStats s = channel->stats();
      return (s.inbox_depth == 0 && s.queued == 0) || s.subscribers == 0;
    }, 1000);
  }
  ASSERT_TRUE(wait_until([&] { return channel->subscriber_count() == 0; }));
  EXPECT_EQ(channel->stats().evicted, 1u);
  EXPECT_EQ(channel->stats().delivered, 0u);
  EXPECT_GE(obs::metrics().counter("events.subscriber.evicted").value(), before + 1);
}

// ---- churn / soak ----------------------------------------------------------

TEST_F(EventChannelTest, SurvivesSubscriberChurnUnderSustainedPublishes) {
  constexpr int kEvents = 2000;  // < the 4096-entry inbox: the publisher never drops
  auto channel = make_channel();

  // One stable Block-policy subscriber must see every single event.
  Recorder stable;
  channel->subscribe(orb_->register_servant(stable.servant()),
                     SubscribeOptions{.queue_capacity = 64,
                                      .policy = Backpressure::Block});

  std::atomic<int> violations{0};
  std::thread publisher([&] {
    for (int i = 0; i < kEvents; ++i) {
      channel->publish("tick", Value(double(i)));
      if (i % 10 == 0) std::this_thread::yield();
    }
  });

  // Churners subscribe and unsubscribe throwaway observers the whole time;
  // a delivery arriving after unsubscribe(wait=true) returned is a bug.
  std::vector<std::thread> churners;
  for (int c = 0; c < 3; ++c) {
    churners.emplace_back([&] {
      for (int round = 0; round < 25; ++round) {
        auto closed = std::make_shared<std::atomic<bool>>(false);
        auto s = FunctionServant::make("EventObserver");
        s->on("notifyEvents", [closed, &violations](const ValueList&) {
          if (closed->load()) ++violations;
          return Value();
        });
        s->on("notifyEvent", [closed, &violations](const ValueList&) {
          if (closed->load()) ++violations;
          return Value();
        });
        const ObjectRef ref = orb_->register_servant(s);
        const std::string id = channel->subscribe(
            ref, SubscribeOptions{.queue_capacity = 16});
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        channel->unsubscribe(id);  // joins the delivery thread
        closed->store(true);
      }
    });
  }

  publisher.join();
  for (auto& t : churners) t.join();
  ASSERT_TRUE(wait_until([&] { return stable.count() == kEvents; }, 20000))
      << "stable subscriber saw " << stable.count() << "/" << kEvents;
  EXPECT_EQ(violations.load(), 0) << "delivery after unsubscribe returned";
  const ChannelStats stats = channel->stats();
  EXPECT_EQ(stats.published, uint64_t(kEvents));
  EXPECT_EQ(stats.evicted, 0u);
  EXPECT_EQ(channel->subscriber_count(), 1u);
}

// ---- script bindings -------------------------------------------------------

TEST_F(EventChannelTest, LumaBindingsPublishAndSubscribe) {
  auto channel = make_channel();
  auto clock = std::make_shared<SimClock>();
  script::ScriptEngine engine(clock);
  install_events_bindings(engine, channel);

  Recorder rec;
  engine.set_global("observer", Value(orb_->register_servant(rec.servant())));
  engine.eval(R"(assert(events.publish("load.high", 92)))", "t1");
  // Let the router drain the pre-subscribe event; a subscription racing an
  // in-flight fan-out may legitimately receive it.
  ASSERT_TRUE(wait_until([&] { return channel->stats().inbox_depth == 0; }));
  engine.eval(R"(
    sub = events.subscribe(observer, { capacity = 8, policy = "drop_oldest" })
    assert(type(sub) == "string")
    assert(events.subscriber_count() == 1)
  )", "t2");
  channel->publish("load.high", Value(95.0));
  ASSERT_TRUE(wait_until([&] { return rec.count() == 1; }))
      << channel->stats().to_json();

  engine.eval(R"(
    assert(events.last("load.high") == 95)
    assert(events.stats().published == 2)
    events.unsubscribe(sub)
  )", "test2");
  ASSERT_TRUE(wait_until([&] { return channel->subscriber_count() == 0; }));
}

// ---- monitor integration ---------------------------------------------------

class MonitorChannelTest : public ::testing::Test {
 protected:
  MonitorChannelTest()
      : clock_(std::make_shared<SimClock>()),
        engine_(std::make_shared<script::ScriptEngine>(clock_)),
        orb_(Orb::create()),
        channel_(EventChannel::create(orb_)) {}
  ~MonitorChannelTest() override { channel_->shutdown(); }

  std::shared_ptr<monitor::EventMonitor> make_monitor() {
    auto mon = std::make_shared<monitor::EventMonitor>("Temp", engine_, orb_);
    engine_->set_global("temp", Value(20.0));
    mon->set_update_code("function() return temp end");
    return mon;
  }
  void set_temp(double v) { engine_->set_global("temp", Value(v)); }

  std::shared_ptr<SimClock> clock_;
  std::shared_ptr<script::ScriptEngine> engine_;
  OrbPtr orb_;
  EventChannelPtr channel_;
};

TEST_F(MonitorChannelTest, ChannelModePublishesOncePerUpdate) {
  auto mon = make_monitor();
  EXPECT_FALSE(mon->has_event_channel());
  EventChannelPtr channel = channel_;
  mon->set_event_channel(
      [channel](const std::string& evid, const Value& payload) {
        return channel->publish(evid, payload);
      });
  EXPECT_TRUE(mon->has_event_channel());
  mon->defineChannelEvent("Overheat", "function(o, v, m) return v > 70 end");
  EXPECT_EQ(mon->channel_event_count(), 1u);

  // Both paths coexist: a direct observer and two channel subscribers.
  std::atomic<int> direct{0};
  auto direct_obs = std::make_shared<monitor::CallbackObserver>(
      [&direct](const std::string&) { ++direct; });
  mon->attachEventObserver(orb_->register_servant(direct_obs), "Overheat",
                           "function(o, v, m) return v > 70 end");
  Recorder sub_a;
  Recorder sub_b;
  channel_->subscribe(orb_->register_servant(sub_a.servant()));
  channel_->subscribe(orb_->register_servant(sub_b.servant()));

  set_temp(80.0);
  mon->update_now();
  // One predicate evaluation, ONE publish — the channel does the fan-out.
  EXPECT_EQ(mon->channel_publishes(), 1u);
  ASSERT_TRUE(wait_until([&] { return sub_a.count() == 1 && sub_b.count() == 1; }));
  EXPECT_EQ(sub_a.events()[0], "Overheat");
  EXPECT_DOUBLE_EQ(sub_a.payload_at(0).as_number(), 80.0)
      << "channel events carry the monitored value as payload";
  EXPECT_EQ(direct.load(), 1) << "direct observers still notified";

  // Level-triggered: fires again while the condition holds, not below it.
  mon->update_now();
  EXPECT_EQ(mon->channel_publishes(), 2u);
  set_temp(60.0);
  mon->update_now();
  EXPECT_EQ(mon->channel_publishes(), 2u);

  mon->removeChannelEvent("Overheat");
  EXPECT_EQ(mon->channel_event_count(), 0u);
  set_temp(90.0);
  mon->update_now();
  EXPECT_EQ(mon->channel_publishes(), 2u);
}

TEST_F(MonitorChannelTest, EdgeTriggeredChannelEventFiresOnTransition) {
  auto mon = make_monitor();
  EventChannelPtr channel = channel_;
  mon->set_event_channel(
      [channel](const std::string& evid, const Value& payload) {
        return channel->publish(evid, payload);
      });
  mon->defineChannelEvent("Overheat", "function(o, v, m) return v > 70 end",
                          /*edge_triggered=*/true);

  set_temp(80.0);
  mon->update_now();
  mon->update_now();  // still true: no second publish
  EXPECT_EQ(mon->channel_publishes(), 1u);
  set_temp(60.0);
  mon->update_now();
  set_temp(90.0);
  mon->update_now();  // false -> true transition
  EXPECT_EQ(mon->channel_publishes(), 2u);
}

TEST_F(MonitorChannelTest, ChannelModeViaServantRef) {
  // Remote form: the monitor publishes through oneway invocations on the
  // channel *servant*, as it would against a channel on another host.
  const ObjectRef channel_ref = orb_->register_servant(channel_);
  auto mon = make_monitor();
  mon->set_event_channel_ref(channel_ref);
  mon->defineChannelEvent("Overheat", "function(o, v, m) return v > 70 end");
  Recorder rec;
  channel_->subscribe(orb_->register_servant(rec.servant()));

  set_temp(75.0);
  mon->update_now();
  ASSERT_TRUE(wait_until([&] { return rec.count() == 1; }));
  EXPECT_EQ(rec.events()[0], "Overheat");
  EXPECT_EQ(channel_->stats().published, 1u);

  mon->set_event_channel_ref(ObjectRef{});  // detach
  EXPECT_FALSE(mon->has_event_channel());
}

TEST_F(MonitorChannelTest, DefineChannelEventRequiresChannel) {
  auto mon = make_monitor();
  EXPECT_THROW(
      mon->defineChannelEvent("Overheat", "function(o, v, m) return true end"),
      monitor::MonitorError);
}

TEST_F(MonitorChannelTest, EvictsDeadDirectObserverAfterFailures) {
  auto mon = make_monitor();
  mon->set_observer_failure_limit(2);
  EXPECT_EQ(mon->observer_failure_limit(), 2);

  auto dead = FunctionServant::make("EventObserver");
  dead->on("notifyEvent",
           [](const ValueList&) -> Value { throw Error("observer gone"); });
  std::atomic<int> alive_hits{0};
  auto alive = std::make_shared<monitor::CallbackObserver>(
      [&alive_hits](const std::string&) { ++alive_hits; });

  const uint64_t before = obs::metrics().counter("monitor.observer.evicted").value();
  mon->attachEventObserver(orb_->register_servant(dead), "Overheat",
                           "function(o, v, m) return v > 70 end");
  mon->attachEventObserver(orb_->register_servant(alive), "Overheat",
                           "function(o, v, m) return v > 70 end");
  EXPECT_EQ(mon->observer_count(), 2u);

  set_temp(80.0);
  mon->update_now();  // failure 1
  EXPECT_EQ(mon->observer_count(), 2u);
  mon->update_now();  // failure 2: evicted
  EXPECT_EQ(mon->observer_count(), 1u);
  EXPECT_EQ(mon->observers_evicted(), 1u);
  EXPECT_EQ(obs::metrics().counter("monitor.observer.evicted").value(), before + 1);
  EXPECT_EQ(alive_hits.load(), 2) << "live observer unaffected by the reaping";

  // The survivor keeps getting notifications.
  mon->update_now();
  EXPECT_EQ(alive_hits.load(), 3);
  EXPECT_EQ(mon->observers_evicted(), 1u);
}

// ---- infrastructure & smart proxy ------------------------------------------

TEST(EventsInfrastructureTest, ProxySubscribesToProcessChannel) {
  core::Infrastructure infra({.name = "events-it"});
  trading::ServiceTypeDef type;
  type.name = "Hello";
  infra.trader().types().add(type);

  auto servant = FunctionServant::make("Hello");
  servant->on("hello", [](const ValueList&) { return Value("hi"); });
  infra.make_host("h1");
  const ObjectRef provider = infra.host_orb("h1")->register_servant(servant);
  auto agent = infra.make_agent("h1");
  agent->export_offer("Hello", provider, {});

  // The lazy per-process channel: first call creates + binds it.
  EXPECT_FALSE(infra.has_event_channel());
  const ObjectRef channel_ref = infra.event_channel_ref();
  EXPECT_TRUE(infra.has_event_channel());
  EXPECT_FALSE(channel_ref.empty());

  core::SmartProxyConfig cfg;
  cfg.service_type = "Hello";
  cfg.monitor_property = "";
  auto proxy = infra.make_proxy(cfg);
  std::atomic<int> strategy_runs{0};
  proxy->set_strategy("LoadSpike",
                      [&strategy_runs](core::SmartProxy&) { ++strategy_runs; });

  proxy->subscribe_channel(channel_ref, {"LoadSpike"});
  EXPECT_TRUE(proxy->channel_subscribed());
  ASSERT_TRUE(infra.event_channel()->publish("LoadSpike", Value(99.0)));
  // Delivery lands in the proxy's normal event queue (postponed handling).
  ASSERT_TRUE(wait_until([&] { return proxy->pending_events() >= 1; }));
  EXPECT_EQ(proxy->invoke("hello").as_string(), "hi");
  EXPECT_EQ(strategy_runs.load(), 1) << "channel event must fire the strategy";

  proxy->unsubscribe_channel();
  EXPECT_FALSE(proxy->channel_subscribed());
  infra.event_channel()->publish("LoadSpike", Value(100.0));
  ASSERT_TRUE(wait_until([&] {
    return infra.event_channel()->stats().published == 2 &&
           infra.event_channel()->stats().inbox_depth == 0;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(proxy->pending_events(), 0u);
}

TEST(EventsInfrastructureTest, ChannelEventsOutliveARebind) {
  // The channel is one per process and fed by any publisher; its events are
  // not about the bound component, so a rebind does not supersede them.
  // Notifications from the bound monitor's registrations are superseded.
  core::Infrastructure infra({.name = "events-rebind"});
  trading::ServiceTypeDef type;
  type.name = "Hello";
  type.properties = {{"Host", "string", trading::PropertyDef::Mode::Normal}};
  infra.trader().types().add(type);
  for (const std::string host : {"h1", "h2"}) {
    auto servant = FunctionServant::make("Hello");
    servant->on("whoami", [host](const ValueList&) { return Value(host); });
    infra.make_host(host);
    const ObjectRef provider = infra.host_orb(host)->register_servant(servant);
    infra.make_agent(host)->export_offer("Hello", provider, {{"Host", Value(host)}});
  }

  core::SmartProxyConfig cfg;
  cfg.service_type = "Hello";
  cfg.constraint = "Host == 'h1'";
  cfg.monitor_property = "";
  auto proxy = infra.make_proxy(cfg);
  ASSERT_TRUE(proxy->select());
  std::atomic<int> moves{0};
  std::atomic<int> spikes{0};
  proxy->set_strategy("LoadIncrease", [&moves](core::SmartProxy& p) {
    ++moves;
    p.select("Host == 'h2'");
  });
  proxy->set_strategy("LoadSpike", [&spikes](core::SmartProxy&) { ++spikes; });
  proxy->subscribe_channel(infra.event_channel_ref(), {"LoadSpike"});

  // Two reports from h1's monitor, then a channel event (about h2, say).
  for (int i = 0; i < 2; ++i) {
    proxy->orb()->invoke(proxy->observer_ref(), "notifyEvent", {Value("LoadIncrease")});
  }
  ASSERT_TRUE(infra.event_channel()->publish("LoadSpike", Value("h2")));
  ASSERT_TRUE(wait_until([&] { return proxy->pending_events() == 3; }));
  const uint64_t superseded =
      obs::metrics().counter("proxy.events_superseded").value();

  EXPECT_EQ(proxy->invoke("whoami").as_string(), "h2");
  EXPECT_EQ(moves.load(), 1) << "the rebind answered h1's second report";
  EXPECT_EQ(spikes.load(), 1) << "a rebind must not drop a channel event";
  EXPECT_EQ(obs::metrics().counter("proxy.events_superseded").value(), superseded + 1);
  proxy->unsubscribe_channel();
}

}  // namespace
}  // namespace adapt::events
