#include "monitor/monitor.h"

#include <chrono>

#include "base/logging.h"
#include "obs/lint_gate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "script/analysis/policy.h"

namespace adapt::monitor {

namespace {

/// Pre-execution gate for remotely-supplied monitor code (aspects, update
/// functions, event predicates): statically analyzes the shipped source
/// under the monitor capability policy and refuses it — before any of it
/// runs — when an error-severity diagnostic fires. Refusals are recorded
/// via obs (`luma.lint.rejected` counter + `luma.lint.reject` span).
void verify_monitor_function(script::ScriptEngine& engine, const std::string& code,
                             const std::string& chunk_name) {
  const auto verdict = engine.analyze_function_cached(
      code, chunk_name, &script::analysis::monitor_policy());
  obs::record_lint_analysis(verdict.cache_hit);
  if (const auto* err = script::analysis::first_error(verdict.diags)) {
    const std::string detail = obs::record_lint_rejection(chunk_name, *err);
    throw MonitorError(chunk_name + ": script rejected by static analysis: " + detail);
  }
}

/// The instruments every aspect evaluation records, resolved once.
struct AspectMetrics {
  obs::Counter& evals;
  obs::Histogram& eval_ns;

  static AspectMetrics& get() {
    static AspectMetrics m{
        obs::metrics().counter("monitor.aspect_evals"),
        obs::metrics().histogram("monitor.aspect_eval_ns"),
    };
    return m;
  }
};

}  // namespace

BasicMonitor::BasicMonitor(std::string property_name,
                           std::shared_ptr<script::ScriptEngine> engine)
    : property_name_(std::move(property_name)), engine_(std::move(engine)) {
  if (!engine_) throw MonitorError("monitor requires a script engine");
}

BasicMonitor::~BasicMonitor() { stop(); }

Value BasicMonitor::getvalue() const {
  std::scoped_lock lock(mu_);
  return value_;
}

void BasicMonitor::setvalue(Value v) {
  {
    std::scoped_lock lock(mu_);
    value_ = std::move(v);
  }
  // setvalue counts as an update: aspects and events must observe it.
  Value current = getvalue();
  refresh_aspects(current);
  on_updated(current);
  ++updates_;
}

void BasicMonitor::defineAspect(const std::string& name, const std::string& update_code) {
  verify_monitor_function(*engine_, update_code, "aspect:" + name);
  Value fn = engine_->compile_function(update_code, "aspect:" + name);
  std::scoped_lock lock(mu_);
  Aspect aspect;
  aspect.fn = std::move(fn);
  aspect.self = Value(Table::make());
  aspect.code = update_code;
  aspects_[name] = std::move(aspect);
}

void BasicMonitor::defineAspectFn(const std::string& name, Value update_fn) {
  if (!update_fn.is_function()) {
    throw MonitorError("defineAspect: update function must be a function");
  }
  std::scoped_lock lock(mu_);
  Aspect aspect;
  aspect.fn = std::move(update_fn);
  aspect.self = Value(Table::make());
  aspects_[name] = std::move(aspect);
}

Value BasicMonitor::getAspectValue(const std::string& name) const {
  std::scoped_lock lock(mu_);
  const auto it = aspects_.find(name);
  if (it == aspects_.end()) throw MonitorError("no such aspect: " + name);
  return it->second.value;
}

std::vector<std::string> BasicMonitor::definedAspects() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(aspects_.size());
  for (const auto& [name, aspect] : aspects_) names.push_back(name);
  return names;
}

void BasicMonitor::removeAspect(const std::string& name) {
  std::scoped_lock lock(mu_);
  aspects_.erase(name);
}

void BasicMonitor::set_update_code(const std::string& code) {
  verify_monitor_function(*engine_, code, "update:" + property_name_);
  Value fn = engine_->compile_function(code, "update:" + property_name_);
  std::scoped_lock lock(mu_);
  update_fn_ = std::move(fn);
}

void BasicMonitor::set_update_function(Value fn) {
  if (!fn.is_function()) throw MonitorError("update function must be a function");
  std::scoped_lock lock(mu_);
  update_fn_ = std::move(fn);
}

void BasicMonitor::update_now() {
  Value fn;
  {
    std::scoped_lock lock(mu_);
    fn = update_fn_;
  }
  Value current;
  if (fn.is_function()) {
    // Run user code outside the monitor lock (CP.22).
    try {
      current = engine_->call1(fn, {});
    } catch (const Error& e) {
      log_warn("monitor ", property_name_, ": update function failed: ", e.what());
      return;
    }
    std::scoped_lock lock(mu_);
    value_ = current;
  } else {
    std::scoped_lock lock(mu_);
    current = value_;
  }
  refresh_aspects(current);
  on_updated(current);
  ++updates_;
}

void BasicMonitor::refresh_aspects(const Value& current) {
  // Snapshot under the lock; evaluate without it so aspect code can call
  // back into the monitor (e.g. getAspectValue on another aspect).
  std::vector<std::pair<std::string, Aspect>> snapshot;
  {
    std::scoped_lock lock(mu_);
    snapshot.assign(aspects_.begin(), aspects_.end());
  }
  const Value wrapper = script_wrapper();
  for (auto& [name, aspect] : snapshot) {
    obs::ScopedSpan span("aspect:" + property_name_ + "/" + name);
    const auto started = std::chrono::steady_clock::now();
    try {
      Value result = engine_->call1(aspect.fn, {aspect.self, current, wrapper});
      std::scoped_lock lock(mu_);
      const auto it = aspects_.find(name);
      if (it != aspects_.end()) it->second.value = std::move(result);
    } catch (const Error& e) {
      span.set_error(e.what());
      log_warn("monitor ", property_name_, ": aspect '", name, "' failed: ", e.what());
    }
    const auto elapsed = std::chrono::steady_clock::now() - started;
    AspectMetrics& instruments = AspectMetrics::get();
    instruments.evals.add();
    instruments.eval_ns.record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }
}

void BasicMonitor::on_updated(const Value&) {}

void BasicMonitor::start(const std::shared_ptr<TimerService>& timers, double period) {
  stop();
  std::scoped_lock lock(mu_);
  timers_ = timers;
  period_ = period;
  // weak_ptr: the timer task must not keep the monitor alive forever.
  std::weak_ptr<BasicMonitor> weak = weak_from_this();
  timer_task_ = timers->schedule_every(period, [weak] {
    if (auto self = weak.lock()) self->update_now();
  });
}

void BasicMonitor::stop() {
  std::shared_ptr<TimerService> timers;
  TimerService::TaskId task = 0;
  {
    std::scoped_lock lock(mu_);
    timers = std::move(timers_);
    task = timer_task_;
    timer_task_ = 0;
    period_ = 0;
  }
  if (timers && task != 0) timers->cancel(task);
}

double BasicMonitor::period() const {
  std::scoped_lock lock(mu_);
  return period_;
}

Value BasicMonitor::evalDP(const std::string& name, const Value& extra) {
  // Numeric extra: index into a table-valued property.
  if (extra.is_number()) {
    const Value v = getvalue();
    if (v.is_table()) return v.as_table()->geti(extra.as_int());
    throw MonitorError("evalDP: property '" + property_name_ + "' is not a table");
  }
  const std::string selector =
      extra.is_string() && !extra.as_string().empty() ? extra.as_string() : name;
  if (selector == property_name_) return getvalue();
  {
    std::scoped_lock lock(mu_);
    const auto it = aspects_.find(selector);
    if (it != aspects_.end()) return it->second.value;
  }
  throw MonitorError("evalDP: monitor '" + property_name_ +
                     "' serves neither property nor aspect '" + selector + "'");
}

Value BasicMonitor::dispatch(const std::string& operation, const ValueList& args) {
  auto arg = [&](size_t i) { return i < args.size() ? args[i] : Value(); };
  if (operation == "getvalue") return getvalue();
  if (operation == "setvalue") {
    setvalue(arg(0));
    return {};
  }
  if (operation == "getAspectValue") return getAspectValue(arg(0).as_string());
  if (operation == "defineAspect") {
    defineAspect(arg(0).as_string(), arg(1).as_string());
    return {};
  }
  if (operation == "definedAspects") {
    auto t = Table::make();
    for (const auto& name : definedAspects()) t->append(Value(name));
    return Value(std::move(t));
  }
  if (operation == "removeAspect") {
    removeAspect(arg(0).as_string());
    return {};
  }
  if (operation == "evalDP") return evalDP(arg(0).is_string() ? arg(0).as_string() : "", arg(1));
  if (operation == "update") {
    update_now();
    return {};
  }
  if (operation == "propertyName") return Value(property_name_);
  throw orb::BadOperation("BasicMonitor has no operation '" + operation + "'");
}

Value BasicMonitor::script_wrapper() {
  std::scoped_lock lock(mu_);
  if (wrapper_.is_table()) return wrapper_;
  auto t = Table::make();
  // The wrapper holds a weak_ptr: scripts keep tables alive indefinitely
  // inside engine globals, and must not extend the monitor's lifetime.
  std::weak_ptr<BasicMonitor> weak = weak_from_this();
  auto with_self = [weak](const char* what) {
    auto self = weak.lock();
    if (!self) throw MonitorError(std::string(what) + ": monitor is gone");
    return self;
  };
  t->set(Value("getvalue"), Value(NativeFunction::make("monitor.getvalue",
      [with_self](const ValueList&) -> ValueList {
        return {with_self("getvalue")->getvalue()};
      })));
  t->set(Value("setvalue"), Value(NativeFunction::make("monitor.setvalue",
      [with_self](const ValueList& a) -> ValueList {
        with_self("setvalue")->setvalue(a.size() > 1 ? a[1] : Value());
        return {};
      })));
  t->set(Value("getAspectValue"), Value(NativeFunction::make("monitor.getAspectValue",
      [with_self](const ValueList& a) -> ValueList {
        return {with_self("getAspectValue")->getAspectValue(a.at(1).as_string())};
      })));
  t->set(Value("defineAspect"), Value(NativeFunction::make("monitor.defineAspect",
      [with_self](const ValueList& a) -> ValueList {
        auto self = with_self("defineAspect");
        if (a.at(2).is_function()) {
          self->defineAspectFn(a.at(1).as_string(), a.at(2));
        } else {
          self->defineAspect(a.at(1).as_string(), a.at(2).as_string());
        }
        return {};
      })));
  t->set(Value("definedAspects"), Value(NativeFunction::make("monitor.definedAspects",
      [with_self](const ValueList&) -> ValueList {
        auto list = Table::make();
        for (const auto& name : with_self("definedAspects")->definedAspects()) {
          list->append(Value(name));
        }
        return {Value(std::move(list))};
      })));
  t->set(Value("update"), Value(NativeFunction::make("monitor.update",
      [with_self](const ValueList&) -> ValueList {
        with_self("update")->update_now();
        return {};
      })));
  t->set(Value("propertyName"), Value(NativeFunction::make("monitor.propertyName",
      [with_self](const ValueList&) -> ValueList {
        return {Value(with_self("propertyName")->property_name())};
      })));
  wrapper_ = Value(std::move(t));
  return wrapper_;
}

// ---- EventMonitor ---------------------------------------------------------

EventMonitor::EventMonitor(std::string property_name,
                           std::shared_ptr<script::ScriptEngine> engine, orb::OrbPtr orb)
    : BasicMonitor(std::move(property_name), std::move(engine)), orb_(orb) {
  if (!orb) throw MonitorError("EventMonitor requires an ORB for notifications");
}

std::string EventMonitor::attachEventObserver(const ObjectRef& observer,
                                              const std::string& event_id,
                                              const std::string& predicate_code,
                                              bool edge_triggered) {
  verify_monitor_function(*engine(), predicate_code, "event:" + event_id);
  Value predicate = engine()->compile_function(predicate_code, "event:" + event_id);
  Observer entry;
  entry.id = "observer-" + std::to_string(next_observer_++);
  entry.ref = observer;
  entry.event_id = event_id;
  entry.predicate = std::move(predicate);
  entry.edge_triggered = edge_triggered;
  const std::string id = entry.id;
  std::scoped_lock lock(mu_);
  observers_.push_back(std::move(entry));
  return id;
}

void EventMonitor::detachEventObserver(const std::string& observer_id) {
  std::scoped_lock lock(mu_);
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (it->id == observer_id) {
      observers_.erase(it);
      return;
    }
  }
  throw MonitorError("no such observer registration: " + observer_id);
}

size_t EventMonitor::observer_count() const {
  std::scoped_lock lock(mu_);
  return observers_.size();
}

void EventMonitor::set_observer_failure_limit(int limit) {
  if (limit < 1) throw MonitorError("observer failure limit must be >= 1");
  std::scoped_lock lock(mu_);
  observer_failure_limit_ = limit;
}

int EventMonitor::observer_failure_limit() const {
  std::scoped_lock lock(mu_);
  return observer_failure_limit_;
}

void EventMonitor::record_notify_failure(const std::string& observer_id) {
  std::scoped_lock lock(mu_);
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (it->id != observer_id) continue;
    if (++it->consecutive_failures >= observer_failure_limit_) {
      log_warn("monitor ", property_name(), ": observer ", it->id, " (",
               it->ref.str(), ") evicted after ", it->consecutive_failures,
               " consecutive notify failures");
      observers_.erase(it);
      ++evictions_;
      adapt::obs::metrics().counter("monitor.observer.evicted").add();
    }
    return;
  }
}

void EventMonitor::set_event_channel(ChannelPublisher publish) {
  std::scoped_lock lock(mu_);
  channel_publish_ = std::move(publish);
}

void EventMonitor::set_event_channel_ref(const ObjectRef& channel) {
  ChannelPublisher publish;
  if (!channel.empty()) {
    std::weak_ptr<orb::Orb> weak_orb = orb_;
    publish = [weak_orb, channel](const std::string& event_id, const Value& payload) {
      auto orb = weak_orb.lock();
      // Fire-and-forget like the direct notify loop: the monitor's update
      // cycle must not block on (or fail with) a slow remote channel.
      return orb && orb->invoke_oneway(channel, "publish", {Value(event_id), payload});
    };
  }
  std::scoped_lock lock(mu_);
  channel_publish_ = std::move(publish);
}

bool EventMonitor::has_event_channel() const {
  std::scoped_lock lock(mu_);
  return static_cast<bool>(channel_publish_);
}

void EventMonitor::defineChannelEvent(const std::string& event_id,
                                      const std::string& predicate_code,
                                      bool edge_triggered) {
  verify_monitor_function(*engine(), predicate_code, "channel-event:" + event_id);
  Value predicate = engine()->compile_function(predicate_code, "channel-event:" + event_id);
  std::scoped_lock lock(mu_);
  if (!channel_publish_) {
    throw MonitorError("defineChannelEvent: no event channel configured (call "
                       "set_event_channel / setEventChannel first)");
  }
  for (ChannelEvent& existing : channel_events_) {
    if (existing.event_id == event_id) {
      existing.predicate = std::move(predicate);
      existing.edge_triggered = edge_triggered;
      existing.was_true = false;
      return;
    }
  }
  channel_events_.push_back(ChannelEvent{event_id, std::move(predicate), edge_triggered});
}

void EventMonitor::removeChannelEvent(const std::string& event_id) {
  std::scoped_lock lock(mu_);
  for (auto it = channel_events_.begin(); it != channel_events_.end(); ++it) {
    if (it->event_id == event_id) {
      channel_events_.erase(it);
      return;
    }
  }
  throw MonitorError("no such channel event: " + event_id);
}

size_t EventMonitor::channel_event_count() const {
  std::scoped_lock lock(mu_);
  return channel_events_.size();
}

void EventMonitor::on_updated(const Value& new_value) {
  std::vector<Observer> snapshot;
  std::vector<ChannelEvent> channel_snapshot;
  ChannelPublisher publish;
  {
    std::scoped_lock lock(mu_);
    snapshot = observers_;
    channel_snapshot = channel_events_;
    publish = channel_publish_;
  }
  if (snapshot.empty() && channel_snapshot.empty()) return;
  const Value wrapper = script_wrapper();
  for (const Observer& obs : snapshot) {
    bool fired = false;
    try {
      // Predicate signature per Fig. 2 discussion: (observer, value, monitor).
      const Value verdict =
          engine()->call1(obs.predicate, {Value(obs.ref), new_value, wrapper});
      fired = verdict.truthy();
      adapt::obs::metrics().counter("monitor.predicate_evals").add();
    } catch (const Error& e) {
      log_warn("monitor ", property_name(), ": event predicate '", obs.event_id,
               "' failed: ", e.what());
      continue;
    }
    bool notify = fired;
    if (obs.edge_triggered) {
      notify = fired && !obs.was_true;
      std::scoped_lock lock(mu_);
      for (Observer& live : observers_) {
        if (live.id == obs.id) {
          live.was_true = fired;
          break;
        }
      }
    }
    if (notify) {
      if (auto orb = orb_.lock()) {
        ++notifications_;
        adapt::obs::metrics().counter("monitor.notifications").add();
        if (orb->invoke_oneway(obs.ref, "notifyEvent", {Value(obs.event_id)})) {
          std::scoped_lock lock(mu_);
          for (Observer& live : observers_) {
            if (live.id == obs.id) {
              live.consecutive_failures = 0;
              break;
            }
          }
        } else {
          record_notify_failure(obs.id);
        }
      }
    }
  }

  // Channel mode: each declared event's predicate runs ONCE per update and a
  // firing event publishes ONCE — fan-out is the channel's job, so update
  // cost no longer scales with the subscriber population.
  if (publish && !channel_snapshot.empty()) {
    for (const ChannelEvent& ev : channel_snapshot) {
      bool fired = false;
      try {
        const Value verdict = engine()->call1(ev.predicate, {Value(), new_value, wrapper});
        fired = verdict.truthy();
        adapt::obs::metrics().counter("monitor.predicate_evals").add();
      } catch (const Error& e) {
        log_warn("monitor ", property_name(), ": channel event predicate '",
                 ev.event_id, "' failed: ", e.what());
        continue;
      }
      bool emit = fired;
      if (ev.edge_triggered) {
        emit = fired && !ev.was_true;
        std::scoped_lock lock(mu_);
        for (ChannelEvent& live : channel_events_) {
          if (live.event_id == ev.event_id) {
            live.was_true = fired;
            break;
          }
        }
      }
      if (emit && publish(ev.event_id, new_value)) {
        ++channel_publishes_;
        adapt::obs::metrics().counter("monitor.channel_publishes").add();
      }
    }
  }
}

Value EventMonitor::dispatch(const std::string& operation, const ValueList& args) {
  auto arg = [&](size_t i) { return i < args.size() ? args[i] : Value(); };
  if (operation == "attachEventObserver") {
    const bool edge = args.size() > 3 && arg(3).truthy();
    return Value(attachEventObserver(arg(0).as_object(), arg(1).as_string(),
                                     arg(2).as_string(), edge));
  }
  if (operation == "detachEventObserver") {
    detachEventObserver(arg(0).as_string());
    return {};
  }
  if (operation == "observerCount") return Value(static_cast<double>(observer_count()));
  if (operation == "setEventChannel") {
    // Remote attach: an empty/nil argument detaches the channel.
    set_event_channel_ref(arg(0).is_object() ? arg(0).as_object() : ObjectRef{});
    return {};
  }
  if (operation == "defineChannelEvent") {
    defineChannelEvent(arg(0).as_string(), arg(1).as_string(),
                       args.size() > 2 && arg(2).truthy());
    return {};
  }
  if (operation == "removeChannelEvent") {
    removeChannelEvent(arg(0).as_string());
    return {};
  }
  if (operation == "channelEventCount") {
    return Value(static_cast<double>(channel_event_count()));
  }
  return BasicMonitor::dispatch(operation, args);
}

}  // namespace adapt::monitor
