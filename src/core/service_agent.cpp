#include "core/service_agent.h"

#include "base/logging.h"
#include "obs/lint_gate.h"
#include "obs/metrics.h"
#include "script/analysis/policy.h"

namespace adapt::core {

namespace {

/// The "increasing" aspect exactly as defined in the paper's Fig. 3: "yes"
/// when the 1-minute average exceeds the 5-minute average.
constexpr const char* kIncreasingAspect = R"(function(self, currval, monitor)
  if currval[1] > currval[2] then
    return "yes"
  else
    return "no"
  end
end)";

}  // namespace

ServiceAgent::ServiceAgent(orb::OrbPtr orb, ObjectRef register_ref,
                           std::shared_ptr<TimerService> timers, ServiceAgentConfig config)
    : orb_(std::move(orb)),
      register_ref_(std::move(register_ref)),
      timers_(std::move(timers)),
      config_(std::move(config)),
      engine_(std::make_shared<script::ScriptEngine>()) {
  if (!orb_) throw Error("ServiceAgent requires an ORB");
  if (!timers_) throw Error("ServiceAgent requires a TimerService");
  monitor::install_monitor_bindings(*engine_, orb_, timers_);

  // agent.* script API
  auto agent_table = Table::make();
  agent_table->set(Value("name"), Value(config_.name));
  agent_table->set(Value("export"), Value(NativeFunction::make("agent.export",
      [this](const ValueList& a) -> ValueList {
        const std::string type = a.at(0).as_string();
        const ObjectRef provider = a.at(1).is_object()
                                       ? a.at(1).as_object()
                                       : ObjectRef::parse(a.at(1).as_string());
        const trading::PropertyMap props =
            trading::Trader::property_map_from_value(a.size() > 2 ? a[2] : Value());
        return {Value(export_offer(type, provider, props))};
      })));
  agent_table->set(Value("withdraw"), Value(NativeFunction::make("agent.withdraw",
      [this](const ValueList& a) -> ValueList {
        withdraw(a.at(0).as_string());
        return {};
      })));
  engine_->set_global("agent", Value(std::move(agent_table)));

  // Arity + capability declarations for the analyzer gating run_script.
  auto& reg = engine_->natives();
  reg.declare("agent.export", 2, 3);
  reg.declare("agent.withdraw", 1, 1);
  reg.tag("agent", "agent");
}

ServiceAgent::~ServiceAgent() {
  disable_heartbeat();  // the heartbeat task captures `this`
  try {
    withdraw_all();
  } catch (const Error& e) {
    log_debug("agent ", config_.name, ": withdraw_all on shutdown failed: ", e.what());
  }
  for (const auto& mon : monitors_) mon->stop();
}

std::shared_ptr<monitor::EventMonitor> ServiceAgent::make_load_monitor_with_source(
    Value source_fn) {
  ObjectRef ref;
  auto mon = monitor::create_event_monitor("LoadAvg", engine_, orb_, timers_,
                                           std::move(source_fn), config_.monitor_period, &ref);
  mon->defineAspect("increasing", kIncreasingAspect);
  mon->update_now();  // aspects valid immediately
  monitor_refs_[mon.get()] = ref;
  monitors_.push_back(mon);
  return mon;
}

std::shared_ptr<monitor::EventMonitor> ServiceAgent::create_load_monitor(
    const sim::HostPtr& host) {
  return make_load_monitor_with_source(Value(sim::make_loadavg_source(host)));
}

std::shared_ptr<monitor::EventMonitor> ServiceAgent::create_monitor(
    const std::string& property, Value update_fn, double period) {
  ObjectRef ref;
  auto mon = monitor::create_event_monitor(
      property, engine_, orb_, timers_, std::move(update_fn),
      period > 0 ? period : config_.monitor_period, &ref);
  monitor_refs_[mon.get()] = ref;
  monitors_.push_back(mon);
  return mon;
}

ObjectRef ServiceAgent::monitor_ref(const monitor::BasicMonitor& mon) const {
  const auto it = monitor_refs_.find(&mon);
  if (it == monitor_refs_.end()) throw Error("monitor not managed by this agent");
  return it->second;
}

std::string ServiceAgent::export_with_load(
    const std::string& service_type, const ObjectRef& provider,
    const std::shared_ptr<monitor::EventMonitor>& load_monitor, trading::PropertyMap extra) {
  const ObjectRef mon_ref = monitor_ref(*load_monitor);
  trading::PropertyMap props = std::move(extra);
  // LoadAvg: 1-minute average, served live by the monitor (numeric extra
  // indexes the {1,5,15} table — see BasicMonitor::evalDP).
  props["LoadAvg"] = trading::OfferedProperty(trading::DynamicProperty{mon_ref, Value(1.0)});
  // LoadAvgIncreasing: the Fig. 3 aspect, served live.
  props["LoadAvgIncreasing"] =
      trading::OfferedProperty(trading::DynamicProperty{mon_ref, Value("increasing")});
  // The monitor itself, so smart proxies can attach event observers.
  props["LoadAvgMonitor"] = trading::OfferedProperty(Value(mon_ref));
  props.emplace("Host", trading::OfferedProperty(Value(config_.name)));
  return export_offer(service_type, provider, props);
}

std::string ServiceAgent::export_offer(const std::string& service_type,
                                       const ObjectRef& provider,
                                       const trading::PropertyMap& properties) {
  double lease = 0;
  {
    std::scoped_lock lock(offers_mu_);
    lease = lease_;
  }
  const Value id = orb_->invoke(
      register_ref_, "export",
      {Value(service_type), Value(provider), trading::Trader::property_map_to_value(properties),
       Value(lease)});
  {
    std::scoped_lock lock(offers_mu_);
    offer_ids_.push_back(id.as_string());
  }
  log_info("agent ", config_.name, ": exported offer ", id.as_string(), " for ",
           service_type);
  return id.as_string();
}

void ServiceAgent::withdraw(const std::string& offer_id) {
  orb_->invoke(register_ref_, "withdraw", {Value(offer_id)});
  std::scoped_lock lock(offers_mu_);
  std::erase(offer_ids_, offer_id);
}

void ServiceAgent::withdraw_all() {
  std::vector<std::string> ids;
  {
    std::scoped_lock lock(offers_mu_);
    ids = offer_ids_;
  }
  for (const std::string& id : ids) {
    try {
      orb_->invoke(register_ref_, "withdraw", {Value(id)});
    } catch (const Error& e) {
      log_debug("agent ", config_.name, ": withdraw ", id, " failed: ", e.what());
    }
  }
  std::scoped_lock lock(offers_mu_);
  for (const std::string& id : ids) std::erase(offer_ids_, id);
}

std::vector<std::string> ServiceAgent::offers() const {
  std::scoped_lock lock(offers_mu_);
  return offer_ids_;
}

void ServiceAgent::enable_heartbeat(double period, double lease) {
  if (period <= 0 || lease <= 0) throw Error("heartbeat period and lease must be positive");
  disable_heartbeat();
  std::vector<std::string> ids;
  {
    std::scoped_lock lock(offers_mu_);
    lease_ = lease;
    ids = offer_ids_;
  }
  // Heartbeats are the control traffic admission control exists to protect:
  // losing a lease renewal during overload would withdraw a healthy offer
  // exactly when clients need every replica. Mark them critical so the
  // trader's ORB never sheds them. ("refresh" is also one of the operations
  // Orb::is_critical names; the explicit flag keeps the call critical on
  // its own.)
  orb::InvokeOptions critical_call;
  critical_call.critical = true;
  // Put existing offers on the lease right away.
  for (const std::string& id : ids) {
    orb_->invoke(register_ref_, "refresh", {Value(id), Value(lease)}, critical_call);
  }
  heartbeat_task_ = timers_->schedule_every(period, [this] {
    std::vector<std::string> ids;
    double lease = 0;
    {
      std::scoped_lock lock(offers_mu_);
      ids = offer_ids_;
      lease = lease_;
    }
    orb::InvokeOptions critical_call;
    critical_call.critical = true;
    for (const std::string& id : ids) {
      try {
        orb_->invoke(register_ref_, "refresh", {Value(id), Value(lease)}, critical_call);
        ++heartbeats_;
        obs::metrics().counter("agent.heartbeats").add();
      } catch (const Error& e) {
        log_warn("agent ", config_.name, ": heartbeat for ", id, " failed: ", e.what());
      }
    }
  });
}

void ServiceAgent::disable_heartbeat() {
  if (heartbeat_task_ != 0) {
    timers_->cancel(heartbeat_task_);
    heartbeat_task_ = 0;
  }
  std::scoped_lock lock(offers_mu_);
  lease_ = 0;
}

ValueList ServiceAgent::run_script(const std::string& code) {
  // Remotely-uploaded agent strategies are verified before any of the code
  // executes: error-severity diagnostics (including capability violations
  // under the strategy policy) refuse the upload, and the refusal is
  // recorded via obs (`luma.lint.rejected` counter + `luma.lint.reject`
  // span) so traces show why an adaptation never took effect.
  const std::string chunk_name = "agent:" + config_.name;
  const auto verdict =
      engine_->analyze_cached(code, chunk_name, &script::analysis::strategy_policy());
  obs::record_lint_analysis(verdict.cache_hit);
  if (const auto* err = script::analysis::first_error(verdict.diags)) {
    const std::string detail = obs::record_lint_rejection(chunk_name, *err);
    throw Error(chunk_name + ": script rejected by static analysis: " + detail);
  }
  return engine_->eval(code, chunk_name);
}

}  // namespace adapt::core
