// LuaMonitor analog (paper SIII): extensible property monitors.
//
//  * BasicMonitor — represents one observed property; getvalue/setvalue.
//  * AspectsManager (Fig. 1) — aspects are named derived views of the
//    property ("increasing", "mean over the last minute", ...) whose update
//    functions are defined AT RUN TIME as Luma source, possibly shipped from
//    a remote client (remote evaluation).
//  * EventMonitor (Fig. 2) — observers attach with an event id and an
//    event-diagnosing function (Luma source). On every update the monitor
//    runs each predicate locally and sends a oneway notifyEvent only when it
//    returns true — moving event detection to the monitor cuts
//    monitor<->observer interactions (paper SIII).
//
// Monitors are ORB servants, so remote clients use them through the same
// operations: getvalue, setvalue, getAspectValue, defineAspect,
// definedAspects, attachEventObserver, detachEventObserver — plus evalDP,
// which makes any monitor usable as a trader dynamic-property evaluator
// (paper SIV).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/timer_service.h"
#include "base/value.h"
#include "orb/orb.h"
#include "script/engine.h"

namespace adapt::monitor {

class MonitorError : public Error {
 public:
  using Error::Error;
};

class BasicMonitor : public orb::Servant,
                     public std::enable_shared_from_this<BasicMonitor> {
 public:
  /// `engine` runs the update/aspect/predicate code; one engine may be
  /// shared by all monitors of a host (service agent).
  BasicMonitor(std::string property_name, std::shared_ptr<script::ScriptEngine> engine);
  ~BasicMonitor() override;

  [[nodiscard]] const std::string& property_name() const { return property_name_; }
  [[nodiscard]] const std::shared_ptr<script::ScriptEngine>& engine() const { return engine_; }

  // ---- BasicMonitor interface -----------------------------------------
  [[nodiscard]] Value getvalue() const;
  void setvalue(Value v);

  // ---- AspectsManager interface (Fig. 1) -------------------------------
  /// Defines (or replaces) an aspect from Luma source denoting
  /// `function(self, currval, monitor) ... end`. The function runs after
  /// every property update; its return value becomes the aspect value.
  /// `self` is a per-aspect scratch table, `monitor` a script wrapper of
  /// this monitor.
  void defineAspect(const std::string& name, const std::string& update_code);
  /// Function-valued aspect (same calling convention, minus source text).
  void defineAspectFn(const std::string& name, Value update_fn);
  [[nodiscard]] Value getAspectValue(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> definedAspects() const;
  void removeAspect(const std::string& name);

  // ---- update machinery -----------------------------------------------
  /// Update function: Luma source denoting `function() return <value> end`.
  void set_update_code(const std::string& code);
  /// Update function as a function value (script closure or native).
  void set_update_function(Value fn);
  /// Runs one update cycle now: update fn -> aspects -> event detection.
  void update_now();
  /// Schedules update_now every `period` seconds on `timers`. The monitor
  /// keeps a reference to the service; call stop() before destroying it.
  void start(const std::shared_ptr<TimerService>& timers, double period);
  void stop();
  [[nodiscard]] double period() const;
  [[nodiscard]] uint64_t update_count() const { return updates_.load(); }

  // ---- dynamic property bridge (paper SIV) ------------------------------
  /// evalDP(name, extra): serves the trader. Selector = extra when it is a
  /// non-empty string, else `name`:
  ///   * selector == property name  -> current value
  ///   * selector names an aspect   -> aspect value
  ///   * numeric extra              -> value[extra] (table-valued properties)
  /// Throws MonitorError otherwise (trader treats it as undefined).
  Value evalDP(const std::string& name, const Value& extra);

  // ---- Servant ---------------------------------------------------------
  Value dispatch(const std::string& operation, const ValueList& args) override;
  [[nodiscard]] std::string interface_name() const override { return "BasicMonitor"; }

  /// Script wrapper of this monitor (the `monitor` argument of aspect and
  /// predicate functions): a table with getvalue/getAspectValue/... methods.
  Value script_wrapper();

 protected:
  /// Hook invoked after each update cycle, outside the monitor lock.
  virtual void on_updated(const Value& new_value);

  struct Aspect {
    Value fn;          // function(self, currval, monitor)
    Value self;        // scratch table passed as `self`
    Value value;       // last computed value
    std::string code;  // source, when defined from text
  };

  /// Runs aspect functions against `current` and stores results.
  void refresh_aspects(const Value& current);

  mutable std::mutex mu_;
  std::string property_name_;
  std::shared_ptr<script::ScriptEngine> engine_;
  Value value_;
  Value update_fn_;
  std::map<std::string, Aspect> aspects_;
  Value wrapper_;  // cached script wrapper
  std::shared_ptr<TimerService> timers_;
  TimerService::TaskId timer_task_ = 0;
  double period_ = 0;
  std::atomic<uint64_t> updates_{0};
};

/// EventMonitor (Fig. 2): BasicMonitor + observer registration and
/// event-driven notification.
///
/// Two publication modes coexist:
///  * Direct (default, the paper's semantics): every update runs each
///    attached observer's predicate and sends a oneway notifyEvent per
///    firing observer — O(observers) per update.
///  * Channel (opt-in via defineChannelEvent + set_event_channel /
///    setEventChannel): the predicate runs once per update and a firing
///    event is published to an EventChannel exactly once, regardless of how
///    many subscribers that channel fans out to. Direct observers are
///    unaffected; the two modes can run side by side.
///
/// Unlike the paper's listing, observers whose notifyEvent delivery fails
/// `observer_failure_limit()` times in a row are auto-detached (the direct
/// loop otherwise taxes every update with a dead endpoint forever); each
/// eviction bumps the `monitor.observer.evicted` counter.
class EventMonitor : public BasicMonitor {
 public:
  /// Channel publication hook: (event_id, payload) -> accepted.
  using ChannelPublisher = std::function<bool(const std::string&, const Value&)>;

  /// `orb` delivers notifyEvent oneways to observers.
  EventMonitor(std::string property_name, std::shared_ptr<script::ScriptEngine> engine,
               orb::OrbPtr orb);

  /// Registers `observer` for `event_id`. `predicate_code` is Luma source
  /// denoting `function(observer, value, monitor) ... end`; the event fires
  /// when it returns true. Returns the observer registration id.
  ///
  /// `edge_triggered` selects between the two notification semantics the
  /// paper sketches in SIII: level-triggered (default) notifies on every
  /// update while the condition holds; edge-triggered notifies "only when
  /// specific changes in the state occur" — at the false->true transition.
  std::string attachEventObserver(const ObjectRef& observer, const std::string& event_id,
                                  const std::string& predicate_code,
                                  bool edge_triggered = false);
  void detachEventObserver(const std::string& observer_id);
  [[nodiscard]] size_t observer_count() const;
  /// Total notifications sent (diagnostics/benchmarks).
  [[nodiscard]] uint64_t notifications_sent() const { return notifications_.load(); }

  // ---- dead-observer reaping ------------------------------------------
  /// Consecutive notifyEvent failures before an observer is auto-detached.
  void set_observer_failure_limit(int limit);
  [[nodiscard]] int observer_failure_limit() const;
  /// Observers auto-detached so far.
  [[nodiscard]] uint64_t observers_evicted() const { return evictions_.load(); }

  // ---- channel publication mode (opt-in) ------------------------------
  /// Routes firing channel events through `publish` (an in-process
  /// EventChannel::publish, typically). Null disables the mode.
  void set_event_channel(ChannelPublisher publish);
  /// Remote form: publish via oneway `publish(evid, payload)` invocations on
  /// `channel` (an EventChannel servant, possibly on another host). An empty
  /// ref disables the mode.
  void set_event_channel_ref(const ObjectRef& channel);
  [[nodiscard]] bool has_event_channel() const;

  /// Declares a channel event: `predicate_code` (same Fig. 2 calling
  /// convention, with a nil observer argument) runs ONCE per update; when it
  /// fires, (event_id, current value) is published to the channel. Replaces
  /// an existing declaration of the same event id. Throws MonitorError when
  /// no channel is configured.
  void defineChannelEvent(const std::string& event_id, const std::string& predicate_code,
                          bool edge_triggered = false);
  void removeChannelEvent(const std::string& event_id);
  [[nodiscard]] size_t channel_event_count() const;
  /// Total channel publishes issued (diagnostics/benchmarks).
  [[nodiscard]] uint64_t channel_publishes() const { return channel_publishes_.load(); }

  Value dispatch(const std::string& operation, const ValueList& args) override;
  [[nodiscard]] std::string interface_name() const override { return "EventMonitor"; }

 protected:
  void on_updated(const Value& new_value) override;

 private:
  struct Observer {
    std::string id;
    ObjectRef ref;
    std::string event_id;
    Value predicate;
    bool edge_triggered = false;
    bool was_true = false;          // last predicate outcome (edge detection)
    int consecutive_failures = 0;   // notifyEvent delivery failures in a row
  };

  struct ChannelEvent {
    std::string event_id;
    Value predicate;
    bool edge_triggered = false;
    bool was_true = false;
  };

  /// Bumps the live observer's failure count; detaches it at the limit.
  void record_notify_failure(const std::string& observer_id);

  /// Weak: this monitor is typically a servant *of* `orb`, so a strong
  /// ref would cycle (orb -> servants_ -> monitor -> orb) and leak the ORB
  /// and its listener threads. Notifications are skipped once it is gone.
  std::weak_ptr<orb::Orb> orb_;
  std::atomic<uint64_t> next_observer_{1};
  std::atomic<uint64_t> notifications_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> channel_publishes_{0};
  std::vector<Observer> observers_;       // guarded by mu_
  std::vector<ChannelEvent> channel_events_;  // guarded by mu_
  ChannelPublisher channel_publish_;      // guarded by mu_
  int observer_failure_limit_ = 3;        // guarded by mu_
};

/// EventObserver servant adapter: forwards notifyEvent into a callback.
/// Smart proxies register one of these and enqueue the events it receives.
/// Also accepts the batched v2 form, `notifyEvents(list)` where each entry
/// is { event = <id> [, payload = <value>] }, invoking the callback once per
/// entry (payloads are ignored).
class CallbackObserver : public orb::Servant {
 public:
  using Callback = std::function<void(const std::string& event_id)>;

  explicit CallbackObserver(Callback cb) : cb_(std::move(cb)) {}

  Value dispatch(const std::string& operation, const ValueList& args) override {
    if (operation == "notifyEvent") {
      cb_(args.empty() ? std::string() : args.at(0).as_string());
      return {};
    }
    if (operation == "notifyEvents") {
      const TablePtr& list = args.at(0).as_table();
      for (int64_t i = 1; i <= list->length(); ++i) {
        const Value entry = list->geti(i);
        if (!entry.is_table()) continue;
        cb_(entry.as_table()->get(Value("event")).as_string());
      }
      return {};
    }
    throw orb::BadOperation("EventObserver only implements notifyEvent/notifyEvents");
  }
  [[nodiscard]] std::string interface_name() const override { return "EventObserver"; }

 private:
  Callback cb_;
};

}  // namespace adapt::monitor
