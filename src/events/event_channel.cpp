#include "events/event_channel.h"

#include <chrono>

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orb/wire.h"

namespace adapt::events {

namespace {

/// Central inbox bound; publishes beyond it drop the oldest entry.
constexpr size_t kInboxCapacity = 4096;

/// Table payloads are snapshotted at publish time with the wire's by-value
/// copy, so the channel's queues never share mutable state with the
/// publisher — a publisher may keep mutating its table after publish()
/// returns while router and delivery threads read the frozen copy.
Value snapshot_payload(const Value& payload) {
  return payload.is_table() ? orb::wire_copy(payload) : payload;
}

}  // namespace

const char* backpressure_name(Backpressure policy) {
  switch (policy) {
    case Backpressure::DropOldest: return "drop_oldest";
    case Backpressure::DropNewest: return "drop_newest";
    case Backpressure::Block: return "block";
  }
  return "unknown";
}

Backpressure backpressure_from_name(const std::string& name) {
  if (name == "drop_oldest") return Backpressure::DropOldest;
  if (name == "drop_newest") return Backpressure::DropNewest;
  if (name == "block") return Backpressure::Block;
  throw EventChannelError("unknown backpressure policy '" + name +
                          "' (drop_oldest | drop_newest | block)");
}

SubscribeOptions SubscribeOptions::from_value(const Value& v) {
  SubscribeOptions options;
  if (v.is_nil()) return options;
  if (!v.is_table()) throw EventChannelError("subscribe options must be a table");
  const Table& t = *v.as_table();
  if (const Value cap = t.get(Value("capacity")); cap.is_number()) {
    const int64_t n = cap.as_int();
    if (n < 1) throw EventChannelError("subscribe: capacity must be >= 1");
    options.queue_capacity = static_cast<size_t>(n);
  }
  if (const Value p = t.get(Value("policy")); p.is_string()) {
    options.policy = backpressure_from_name(p.as_string());
  }
  if (const Value ev = t.get(Value("events")); ev.is_table()) {
    const Table& list = *ev.as_table();
    for (int64_t i = 1; i <= list.length(); ++i) {
      options.events.push_back(list.geti(i).as_string());
    }
  }
  if (const Value r = t.get(Value("replay")); !r.is_nil()) {
    options.replay_last = r.truthy();
  }
  if (const Value mf = t.get(Value("max_failures")); mf.is_number()) {
    const int64_t n = mf.as_int();
    if (n < 1) throw EventChannelError("subscribe: max_failures must be >= 1");
    options.max_failures = static_cast<int>(n);
  }
  return options;
}

Value SubscribeOptions::to_value() const {
  auto t = Table::make();
  t->set(Value("capacity"), Value(static_cast<double>(queue_capacity)));
  t->set(Value("policy"), Value(backpressure_name(policy)));
  if (!events.empty()) {
    auto list = Table::make();
    for (const auto& ev : events) list->append(Value(ev));
    t->set(Value("events"), Value(std::move(list)));
  }
  t->set(Value("replay"), Value(replay_last));
  t->set(Value("max_failures"), Value(static_cast<double>(max_failures)));
  return Value(std::move(t));
}

Value ChannelStats::to_value() const {
  auto t = Table::make();
  t->set(Value("published"), Value(published));
  t->set(Value("delivered"), Value(delivered));
  t->set(Value("dropped"), Value(dropped));
  t->set(Value("evicted"), Value(evicted));
  t->set(Value("batches"), Value(batches));
  t->set(Value("subscribers"), Value(static_cast<double>(subscribers)));
  t->set(Value("queued"), Value(static_cast<double>(queued)));
  t->set(Value("inbox_depth"), Value(static_cast<double>(inbox_depth)));
  return Value(std::move(t));
}

std::string ChannelStats::to_json() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"published\":%llu,\"delivered\":%llu,\"dropped\":%llu,"
                "\"evicted\":%llu,\"batches\":%llu,\"subscribers\":%zu,"
                "\"queued\":%zu,\"inbox_depth\":%zu}",
                static_cast<unsigned long long>(published),
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(evicted),
                static_cast<unsigned long long>(batches), subscribers, queued,
                inbox_depth);
  return buf;
}

// ---- lifecycle ------------------------------------------------------------

EventChannel::EventChannel(const orb::OrbPtr& orb, EventChannelConfig config)
    : config_(std::move(config)), orb_(orb) {
  if (!orb) throw EventChannelError("EventChannel requires an ORB for delivery");
}

EventChannelPtr EventChannel::create(const orb::OrbPtr& orb, EventChannelConfig config) {
  auto channel =
      std::shared_ptr<EventChannel>(new EventChannel(orb, std::move(config)));
  channel->start();
  return channel;
}

void EventChannel::start() {
  router_ = std::thread([this] { router_loop(); });
}

EventChannel::~EventChannel() { shutdown(); }

void EventChannel::shutdown() {
  std::vector<SubscriberPtr> subs;
  std::vector<SubscriberPtr> evicted;
  {
    std::scoped_lock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& [id, sub] : subscribers_) subs.push_back(sub);
    subscribers_.clear();
    evicted.swap(evicted_);
    inbox_cv_.notify_all();
  }
  // Stop subscribers before joining the router: a Block-policy router may be
  // parked on a full subscriber queue and only wakes when that subscriber's
  // stopped flag flips.
  for (const auto& sub : subs) {
    std::scoped_lock sub_lock(sub->mu);
    sub->stopped = true;
    sub->cv.notify_all();
    sub->space_cv.notify_all();
  }
  if (router_.joinable()) router_.join();
  for (const auto& sub : subs) {
    if (sub->thread.joinable()) sub->thread.join();
  }
  for (const auto& sub : evicted) {
    if (sub->thread.joinable()) sub->thread.join();
  }
  update_queue_gauge();
}

// ---- publish side ---------------------------------------------------------

bool EventChannel::publish(const std::string& event_id, const Value& payload) {
  obs::ScopedSpan span("events.publish:" + event_id);
  const Value frozen = snapshot_payload(payload);
  {
    std::scoped_lock lock(mu_);
    if (stopping_) return false;
    if (inbox_.size() >= kInboxCapacity) {
      // The inbox is the publisher-facing bound: never block the publisher,
      // shed the oldest pending event instead.
      inbox_.pop_front();
      dropped_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("events.dropped").add();
    }
    inbox_.push_back(
        PendingEvent{event_id, frozen, std::chrono::steady_clock::now()});
  }
  inbox_cv_.notify_one();
  published_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics().counter("events.published").add();
  return true;
}

void EventChannel::router_loop() {
  for (;;) {
    PendingEvent ev;
    std::vector<SubscriberPtr> targets;
    {
      std::unique_lock lock(mu_);
      inbox_cv_.wait(lock, [this] { return stopping_ || !inbox_.empty(); });
      if (stopping_) return;
      ev = std::move(inbox_.front());
      inbox_.pop_front();
      last_values_[ev.event_id] = ev.payload;
      targets.reserve(subscribers_.size());
      for (const auto& [id, sub] : subscribers_) {
        if (sub->options.events.empty()) {
          targets.push_back(sub);
          continue;
        }
        for (const auto& wanted : sub->options.events) {
          if (wanted == ev.event_id) {
            targets.push_back(sub);
            break;
          }
        }
      }
    }
    for (const auto& sub : targets) enqueue_for(sub, ev);
    update_queue_gauge();
  }
}

void EventChannel::enqueue_for(const SubscriberPtr& sub, const PendingEvent& ev) {
  std::unique_lock lock(sub->mu);
  if (sub->stopped) return;
  if (sub->queue.size() >= sub->options.queue_capacity) {
    switch (sub->options.policy) {
      case Backpressure::DropOldest:
        sub->queue.pop_front();
        dropped_.fetch_add(1, std::memory_order_relaxed);
        obs::metrics().counter("events.dropped").add();
        break;
      case Backpressure::DropNewest:
        dropped_.fetch_add(1, std::memory_order_relaxed);
        obs::metrics().counter("events.dropped").add();
        return;
      case Backpressure::Block:
        // Stalls the router (head-of-line for every other subscriber) until
        // the consumer drains — the price of guaranteed delivery.
        sub->space_cv.wait(lock, [&] {
          return sub->stopped ||
                 sub->queue.size() < sub->options.queue_capacity;
        });
        if (sub->stopped) return;
        break;
    }
  }
  sub->queue.push_back(ev);
  sub->cv.notify_one();
}

// ---- delivery side --------------------------------------------------------

void EventChannel::delivery_loop(const SubscriberPtr& sub) {
  for (;;) {
    std::vector<PendingEvent> batch;
    {
      std::unique_lock lock(sub->mu);
      sub->cv.wait(lock, [&] { return sub->stopped || !sub->queue.empty(); });
      if (sub->stopped) return;
      // Coalesce: everything queued right now becomes one batched call.
      batch.assign(std::make_move_iterator(sub->queue.begin()),
                   std::make_move_iterator(sub->queue.end()));
      sub->queue.clear();
      sub->space_cv.notify_all();
    }
    const size_t count = batch.size();
    if (deliver(sub, std::move(batch))) {
      sub->consecutive_failures = 0;
      delivered_.fetch_add(count, std::memory_order_relaxed);
      obs::metrics().counter("events.delivered").add(count);
    } else {
      // The failed batch is shed (re-queuing a dead observer's events would
      // just fill the queue again); what matters is spotting the corpse.
      if (++sub->consecutive_failures >= sub->options.max_failures) {
        evict(sub);
        return;
      }
    }
  }
}

bool EventChannel::deliver(const SubscriberPtr& sub, std::vector<PendingEvent> batch) {
  auto orb = orb_.lock();
  if (!orb) return false;
  obs::ScopedSpan span("events.deliver:" + config_.name);
  if (span.active()) {
    span.annotate("subscriber", sub->id);
    span.annotate("batch", std::to_string(batch.size()));
  }
  const auto record_latency = [&] {
    const auto now = std::chrono::steady_clock::now();
    auto& hist = obs::metrics().histogram("events.delivery_latency_ns");
    for (const PendingEvent& ev : batch) {
      hist.record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - ev.enqueued)
              .count()));
    }
  };

  // Batched first: one notifyEvents(list) per drain. A synchronous invoke,
  // so BadOperation (pre-batch observer, or client-side validation against
  // a v1 EventObserver interface definition) is visible and downgrades the
  // subscriber permanently; transport errors count toward eviction.
  if (sub->batch_capable.value_or(true)) {
    auto list = Table::make();
    for (const PendingEvent& ev : batch) {
      auto entry = Table::make();
      entry->set(Value("event"), Value(ev.event_id));
      if (!ev.payload.is_nil()) entry->set(Value("payload"), ev.payload);
      list->append(Value(std::move(entry)));
    }
    try {
      orb->invoke(sub->observer, "notifyEvents", {Value(std::move(list))});
      sub->batch_capable = true;
      batches_.fetch_add(1, std::memory_order_relaxed);
      record_latency();
      return true;
    } catch (const orb::BadOperation&) {
      sub->batch_capable = false;  // v1 observer: fall through to per-event
    } catch (const Error& e) {
      span.set_error(e.what());
      return false;
    }
  }

  // v1 fallback: the exact wire contract of the monitor's direct loop —
  // oneway notifyEvent(evid), payload elided.
  for (const PendingEvent& ev : batch) {
    if (!orb->invoke_oneway(sub->observer, "notifyEvent", {Value(ev.event_id)})) {
      span.set_error("notifyEvent delivery failed");
      return false;
    }
  }
  record_latency();
  return true;
}

void EventChannel::evict(const SubscriberPtr& sub) {
  {
    std::scoped_lock sub_lock(sub->mu);
    sub->stopped = true;
    sub->evicted = true;
    sub->queue.clear();
    sub->space_cv.notify_all();
  }
  {
    std::scoped_lock lock(mu_);
    subscribers_.erase(sub->id);
    evicted_.push_back(sub);  // joined later by reap_evicted/shutdown
  }
  evicted_count_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics().counter("events.subscriber.evicted").add();
  log_warn("event channel '", config_.name, "': subscriber ", sub->id, " (",
           sub->observer.str(), ") evicted after ", sub->consecutive_failures,
           " consecutive delivery failures");
  update_queue_gauge();
}

void EventChannel::reap_evicted() {
  std::vector<SubscriberPtr> done;
  {
    std::scoped_lock lock(mu_);
    done.swap(evicted_);
  }
  for (const auto& sub : done) {
    if (sub->thread.joinable()) sub->thread.join();
  }
}

// ---- subscriptions --------------------------------------------------------

std::string EventChannel::subscribe(const ObjectRef& observer,
                                    SubscribeOptions options) {
  if (observer.empty()) throw EventChannelError("subscribe: empty observer reference");
  reap_evicted();
  auto sub = std::make_shared<Subscriber>();
  sub->id = "sub-" + std::to_string(next_subscription_.fetch_add(1));
  sub->observer = observer;
  sub->options = std::move(options);
  {
    std::scoped_lock lock(mu_);
    if (stopping_) throw EventChannelError("subscribe: channel is shut down");
    if (sub->options.replay_last) {
      // Late-joiner replay: seed the queue with the last value of every
      // matching event id before the delivery thread starts.
      const auto now = std::chrono::steady_clock::now();
      if (sub->options.events.empty()) {
        for (const auto& [event_id, payload] : last_values_) {
          sub->queue.push_back(PendingEvent{event_id, payload, now});
        }
      } else {
        for (const auto& event_id : sub->options.events) {
          const auto it = last_values_.find(event_id);
          if (it != last_values_.end()) {
            sub->queue.push_back(PendingEvent{event_id, it->second, now});
          }
        }
      }
    }
    subscribers_[sub->id] = sub;
  }
  // No notify needed for replay-seeded events: the delivery thread's first
  // cv.wait evaluates its predicate (queue non-empty) under sub->mu.
  sub->thread = std::thread([this, sub] { delivery_loop(sub); });
  return sub->id;
}

void EventChannel::unsubscribe(const std::string& subscription_id, bool wait) {
  SubscriberPtr sub;
  {
    std::scoped_lock lock(mu_);
    const auto it = subscribers_.find(subscription_id);
    if (it == subscribers_.end()) {
      throw EventChannelError("no such subscription: " + subscription_id);
    }
    sub = it->second;
    subscribers_.erase(it);
  }
  {
    std::scoped_lock sub_lock(sub->mu);
    sub->stopped = true;
    sub->cv.notify_all();
    sub->space_cv.notify_all();
  }
  if (wait) {
    // After the join no delivery to this observer is in flight.
    if (sub->thread.joinable()) sub->thread.join();
  } else {
    std::scoped_lock lock(mu_);
    evicted_.push_back(sub);  // joined by a later reap or shutdown
  }
  update_queue_gauge();
}

// ---- introspection --------------------------------------------------------

size_t EventChannel::subscriber_count() const {
  std::scoped_lock lock(mu_);
  return subscribers_.size();
}

ChannelStats EventChannel::stats() const {
  ChannelStats s;
  s.published = published_.load(std::memory_order_relaxed);
  s.delivered = delivered_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.evicted = evicted_count_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  std::vector<SubscriberPtr> subs;
  {
    std::scoped_lock lock(mu_);
    s.subscribers = subscribers_.size();
    s.inbox_depth = inbox_.size();
    for (const auto& [id, sub] : subscribers_) subs.push_back(sub);
  }
  for (const auto& sub : subs) {
    std::scoped_lock sub_lock(sub->mu);
    s.queued += sub->queue.size();
  }
  return s;
}

Value EventChannel::last_value(const std::string& event_id) const {
  std::scoped_lock lock(mu_);
  const auto it = last_values_.find(event_id);
  return it == last_values_.end() ? Value() : it->second;
}

void EventChannel::update_queue_gauge() {
  // Cheap aggregate refresh: inbox + per-subscriber backlog. Called from the
  // router between events and on membership changes, not per enqueue.
  size_t depth = 0;
  std::vector<SubscriberPtr> subs;
  {
    std::scoped_lock lock(mu_);
    depth += inbox_.size();
    for (const auto& [id, sub] : subscribers_) subs.push_back(sub);
  }
  for (const auto& sub : subs) {
    std::scoped_lock sub_lock(sub->mu);
    depth += sub->queue.size();
  }
  obs::metrics().gauge("events.queue_depth").set(static_cast<double>(depth));
}

// ---- servant --------------------------------------------------------------

Value EventChannel::dispatch(const std::string& operation, const ValueList& args) {
  auto arg = [&](size_t i) { return i < args.size() ? args[i] : Value(); };
  if (operation == "publish") {
    return Value(publish(arg(0).as_string(), arg(1)));
  }
  if (operation == "subscribe") {
    return Value(subscribe(arg(0).as_object(), SubscribeOptions::from_value(arg(1))));
  }
  if (operation == "unsubscribe") {
    unsubscribe(arg(0).as_string(), args.size() < 2 || arg(1).truthy());
    return {};
  }
  if (operation == "subscriberCount") {
    return Value(static_cast<double>(subscriber_count()));
  }
  if (operation == "stats") return stats().to_value();
  if (operation == "lastValue") return last_value(arg(0).as_string());
  throw orb::BadOperation("EventChannel has no operation '" + operation + "'");
}

void define_event_interfaces(orb::InterfaceRepository& repo) {
  repo.define_idl(R"(
    interface EventObserver {
      oneway void notifyEvent(in string evid);
      oneway void notifyEvents(in table events);
    };
    interface EventChannel {
      boolean publish(in string evid, in any payload);
      string subscribe(in object observer, in table opts);
      void unsubscribe(in string id, in boolean wait);
      number subscriberCount();
      table stats();
      any lastValue(in string evid);
    };
  )");
}

}  // namespace adapt::events
