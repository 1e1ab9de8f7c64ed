// EventChannel — decoupled pub/sub fan-out for monitor events.
//
// The paper's EventMonitor (§III, Fig. 2) notifies observers point-to-point:
// a synchronous loop of one oneway RPC per observer inside the monitor's own
// update cycle, so publish cost is O(observers) and a slow observer taxes
// every update. This channel is the CORBA Event Service-style counterpart:
//
//   * publish(event_id, payload) enqueues into a bounded central inbox and
//     returns — O(1) regardless of how many subscribers are attached.
//   * One router thread drains the inbox, records the last value per event
//     id (late-joiner replay) and fans events out into per-subscriber
//     bounded queues, applying each subscriber's backpressure policy
//     (drop_oldest | drop_newest | block).
//   * One delivery thread per subscriber drains its queue, coalescing
//     pending events into a single batched `notifyEvents(list)` call.
//     Observers that do not implement the batched operation (the paper's
//     Fig. 4 verbatim listing implements only `notifyEvent`) are detected
//     via BadOperation and transparently downgraded to per-event oneway
//     `notifyEvent(evid)` — wire-identical to the monitor's direct loop.
//   * Consecutive delivery failures evict the subscriber (the dead-observer
//     reaping the direct loop never had), with an `events.subscriber.evicted`
//     counter recording each eviction.
//
// The channel is an ORB servant (publish/subscribe/unsubscribe/... are
// remotely invocable), so a monitor on one host can publish to a channel on
// another, and thousands of smart proxies can subscribe to the same
// load/availability events without multiplying the monitor's update cost.
//
// Observability: `events.publish` / `events.deliver` spans, queue-depth
// gauge (`events.queue_depth`), `events.published` / `events.delivered` /
// `events.dropped` / `events.subscriber.evicted` counters and an
// enqueue-to-delivery latency histogram (`events.delivery_latency_ns`).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/value.h"
#include "orb/orb.h"

namespace adapt::events {

class EventChannelError : public Error {
 public:
  using Error::Error;
};

/// What to do when a subscriber's bounded queue is full.
enum class Backpressure {
  DropOldest,  // evict the oldest queued event to admit the new one
  DropNewest,  // discard the incoming event
  Block,       // stall the router until the consumer drains (head-of-line!)
};

[[nodiscard]] const char* backpressure_name(Backpressure policy);
/// Parses "drop_oldest" | "drop_newest" | "block"; throws EventChannelError.
[[nodiscard]] Backpressure backpressure_from_name(const std::string& name);

struct SubscribeOptions {
  /// Bounded queue length; publishes beyond it hit `policy`.
  size_t queue_capacity = 256;
  Backpressure policy = Backpressure::DropOldest;
  /// Event ids this subscriber wants; empty = every event on the channel.
  std::vector<std::string> events = {};
  /// Replay the channel's last value for each matching event id at
  /// subscribe time, so late joiners start from known state.
  bool replay_last = false;
  /// Consecutive delivery failures before the subscriber is evicted.
  int max_failures = 3;

  /// Builds options from the Luma/wire table form:
  /// { capacity=N, policy="drop_oldest", events={...}, replay=bool,
  ///   max_failures=N }. A nil value yields the defaults.
  static SubscribeOptions from_value(const Value& v);
  [[nodiscard]] Value to_value() const;
};

/// Aggregate channel statistics (also served as the `stats` operation and
/// dumped by `adaptsh events`).
struct ChannelStats {
  uint64_t published = 0;   // events accepted by publish()
  uint64_t delivered = 0;   // per-subscriber deliveries completed
  uint64_t dropped = 0;     // events discarded by backpressure
  uint64_t evicted = 0;     // subscribers auto-unsubscribed after failures
  uint64_t batches = 0;     // batched notifyEvents calls issued
  size_t subscribers = 0;   // live subscriptions
  size_t queued = 0;        // events currently sitting in subscriber queues
  size_t inbox_depth = 0;   // events awaiting the router

  [[nodiscard]] Value to_value() const;
  [[nodiscard]] std::string to_json() const;
};

struct EventChannelConfig {
  /// Channel name (span annotations, log lines).
  std::string name = "events";
};

/// The channel servant. Create via EventChannel::create; the ORB is held
/// weakly (the channel is typically a servant *of* that ORB, and a strong
/// reference would cycle). Delivery stops once the ORB is gone.
class EventChannel : public orb::Servant,
                     public std::enable_shared_from_this<EventChannel> {
 public:
  static std::shared_ptr<EventChannel> create(const orb::OrbPtr& orb,
                                              EventChannelConfig config = {});
  ~EventChannel() override;

  /// Enqueues (event_id, payload) and returns immediately — O(1) in the
  /// subscriber count. Returns false when the channel is shut down.
  bool publish(const std::string& event_id, const Value& payload);

  /// Registers `observer` (an EventObserver — batched or v1). Returns the
  /// subscription id used by unsubscribe.
  std::string subscribe(const ObjectRef& observer, SubscribeOptions options = {});

  /// Stops and removes a subscription. After this returns no further
  /// delivery to that observer is in flight (the delivery thread is
  /// joined). Unknown ids throw EventChannelError. `wait=false` skips the
  /// join — required when the caller may hold a lock the delivery thread
  /// needs (e.g. a script engine delivering to a ScriptServant observer).
  void unsubscribe(const std::string& subscription_id, bool wait = true);

  [[nodiscard]] size_t subscriber_count() const;
  [[nodiscard]] ChannelStats stats() const;
  /// Last payload published for `event_id` (nil when never published).
  [[nodiscard]] Value last_value(const std::string& event_id) const;

  /// Stops router + delivery threads and rejects further publishes.
  /// Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] const std::string& name() const { return config_.name; }

  // ---- Servant --------------------------------------------------------
  /// Operations: publish(evid, payload), subscribe(observer, opts) -> id,
  /// unsubscribe(id), subscriberCount(), stats(), lastValue(evid).
  Value dispatch(const std::string& operation, const ValueList& args) override;
  [[nodiscard]] std::string interface_name() const override { return "EventChannel"; }

 private:
  struct PendingEvent {
    std::string event_id;
    Value payload;
    std::chrono::steady_clock::time_point enqueued;
  };

  struct Subscriber {
    std::string id;
    ObjectRef observer;
    SubscribeOptions options;
    /// nullopt until probed: first delivery tries batched notifyEvents and
    /// downgrades to per-event notifyEvent on BadOperation.
    std::optional<bool> batch_capable;
    int consecutive_failures = 0;

    std::mutex mu;
    std::condition_variable cv;       // signals the delivery thread
    std::condition_variable space_cv; // signals a Block-policy router
    std::deque<PendingEvent> queue;   // guarded by mu
    bool stopped = false;             // guarded by mu
    bool evicted = false;             // guarded by mu
    std::thread thread;               // joined by unsubscribe/shutdown
  };
  using SubscriberPtr = std::shared_ptr<Subscriber>;

  explicit EventChannel(const orb::OrbPtr& orb, EventChannelConfig config);
  void start();

  void router_loop();
  void delivery_loop(const SubscriberPtr& sub);
  /// Fans one event into `sub`'s queue per its backpressure policy.
  void enqueue_for(const SubscriberPtr& sub, const PendingEvent& ev);
  /// Delivers `batch` to `sub`'s observer; returns false on failure.
  bool deliver(const SubscriberPtr& sub, std::vector<PendingEvent> batch);
  /// Marks `sub` evicted and removes it from the table (self-removal from
  /// its own delivery thread; the thread is joined later by reap/shutdown).
  void evict(const SubscriberPtr& sub);
  /// Joins delivery threads of evicted subscribers (cheap; they have
  /// already exited).
  void reap_evicted();
  void update_queue_gauge();

  EventChannelConfig config_;
  std::weak_ptr<orb::Orb> orb_;
  std::atomic<uint64_t> next_subscription_{1};

  mutable std::mutex mu_;  // guards inbox_, subscribers_, last_values_, stats
  std::condition_variable inbox_cv_;
  std::deque<PendingEvent> inbox_;
  std::map<std::string, SubscriberPtr> subscribers_;
  std::vector<SubscriberPtr> evicted_;  // awaiting join
  std::map<std::string, Value> last_values_;
  bool stopping_ = false;
  std::thread router_;

  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> evicted_count_{0};
  std::atomic<uint64_t> batches_{0};
};

using EventChannelPtr = std::shared_ptr<EventChannel>;

/// Defines the event interfaces — including the batched v2 observer
/// contract — into an interface repository:
///
///   interface EventObserver {
///     oneway void notifyEvent(in string evid);
///     oneway void notifyEvents(in table events);   // v2, batched
///   };
///   interface EventChannel { ... };
///
/// Repositories that keep the paper's v1 EventObserver (no notifyEvents)
/// make the channel's batch probe fail client-side validation, which is
/// exactly the automatic per-event fallback path.
void define_event_interfaces(orb::InterfaceRepository& repo);

}  // namespace adapt::events
