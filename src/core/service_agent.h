// ServiceAgent — "the elements responsible for announcing service offers to
// a trader. Besides managing the service offers of one or more server
// components, these service agents — typically implemented as Lua scripts —
// can create new monitors or configure existing ones" (paper SIV).
//
// An agent runs on a component's host. It owns a script engine and a set of
// monitors, exports offers whose nonfunctional properties are *dynamic*
// (evaluated by those monitors at lookup time) and withdraws them on
// shutdown. The agent can equally be driven from C++ (helpers below) or
// from Luma agent scripts (run_script), which see the monitor bindings and
// an `agent` table.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "monitor/bindings.h"
#include "monitor/monitor.h"
#include "orb/orb.h"
#include "script/engine.h"
#include "sim/host.h"
#include "trading/trader.h"

namespace adapt::core {

struct ServiceAgentConfig {
  /// Host this agent manages (used for naming and the LoadAvg source).
  std::string name = "agent";
  /// Monitor update period, seconds (paper Fig. 3: every minute).
  double monitor_period = 60.0;
};

class ServiceAgent {
 public:
  /// `orb` is the host's ORB; `register_ref` the trader Register servant;
  /// `timers` drives the agent's monitors.
  ServiceAgent(orb::OrbPtr orb, ObjectRef register_ref,
               std::shared_ptr<TimerService> timers, ServiceAgentConfig config = {});
  ~ServiceAgent();
  ServiceAgent(const ServiceAgent&) = delete;
  ServiceAgent& operator=(const ServiceAgent&) = delete;

  // ---- monitors ----------------------------------------------------------
  /// Creates the paper's LoadAvg event monitor for `host` (Fig. 3): value is
  /// the {1,5,15}-minute table read from the host's load-average source, and
  /// the "increasing" aspect compares the 1- and 5-minute averages.
  std::shared_ptr<monitor::EventMonitor> create_load_monitor(const sim::HostPtr& host);
  /// Generic event monitor with an arbitrary update function.
  std::shared_ptr<monitor::EventMonitor> create_monitor(const std::string& property,
                                                        Value update_fn, double period = -1);
  [[nodiscard]] ObjectRef monitor_ref(const monitor::BasicMonitor& mon) const;

  // ---- offers ----------------------------------------------------------
  /// Exports an offer whose LoadAvg / LoadAvgIncreasing properties are
  /// dynamic properties served by `load_monitor`, and whose
  /// `LoadAvgMonitor` property carries the monitor reference (so smart
  /// proxies can attach observers). Extra static properties are merged in.
  /// Returns the offer id.
  std::string export_with_load(const std::string& service_type, const ObjectRef& provider,
                               const std::shared_ptr<monitor::EventMonitor>& load_monitor,
                               trading::PropertyMap extra = {});
  /// Plain export passthrough. Offers exported while a heartbeat is enabled
  /// carry the heartbeat's lease.
  std::string export_offer(const std::string& service_type, const ObjectRef& provider,
                           const trading::PropertyMap& properties);
  void withdraw(const std::string& offer_id);
  void withdraw_all();
  [[nodiscard]] std::vector<std::string> offers() const;

  /// Liveness protocol: exports get `lease` leases and the agent refreshes
  /// them every `period` seconds. When the agent (or its host) dies, its
  /// offers expire at the trader by themselves — no explicit withdrawal
  /// needed. Existing offers are refreshed onto the lease immediately.
  void enable_heartbeat(double period, double lease);
  void disable_heartbeat();
  [[nodiscard]] uint64_t heartbeats_sent() const { return heartbeats_; }

  // ---- scripting ---------------------------------------------------------
  /// Runs an agent script. The engine carries the monitor bindings
  /// (EventMonitor:new / BasicMonitor:new) plus:
  ///   agent.export(type, provider_ref_string, props_table) -> offer_id
  ///   agent.withdraw(offer_id)
  ///   agent.name
  ValueList run_script(const std::string& code);
  [[nodiscard]] const std::shared_ptr<script::ScriptEngine>& engine() const { return engine_; }
  [[nodiscard]] const std::shared_ptr<TimerService>& timers() const { return timers_; }

 private:
  std::shared_ptr<monitor::EventMonitor> make_load_monitor_with_source(Value source_fn);

  orb::OrbPtr orb_;
  ObjectRef register_ref_;
  std::shared_ptr<TimerService> timers_;
  ServiceAgentConfig config_;
  std::shared_ptr<script::ScriptEngine> engine_;

  /// Guards offer_ids_ and lease_: the heartbeat timer thread reads both
  /// while callers export/withdraw. Snapshot under the lock, refresh outside
  /// it (CP.22 — no remote calls while holding a lock).
  mutable std::mutex offers_mu_;
  std::vector<std::string> offer_ids_;
  std::map<const monitor::BasicMonitor*, ObjectRef> monitor_refs_;
  std::vector<std::shared_ptr<monitor::BasicMonitor>> monitors_;

  double lease_ = 0;  // 0 = permanent offers
  TimerService::TaskId heartbeat_task_ = 0;
  std::atomic<uint64_t> heartbeats_{0};
};

}  // namespace adapt::core
