// Infrastructure — the one-stop facade wiring the whole stack (paper Fig. 6):
// clock + timer service, a trader on its own ORB, per-host ORBs and
// simulated hosts, service agents and smart proxies. Examples, tests and
// benchmarks build their deployments through this class; it also plays the
// role of the paper's LuaTrading simplified trader interface for scripts.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/service_agent.h"
#include "core/smart_proxy.h"
#include "events/event_channel.h"
#include "monitor/monitor.h"
#include "orb/naming.h"
#include "orb/orb.h"
#include "sim/host.h"
#include "trading/trader.h"

namespace adapt::core {

struct InfrastructureOptions {
  /// Virtual time (SimClock, driven by run_for) vs wall-clock time.
  bool simulated_time = true;
  /// When true, every ORB also listens on TCP (realistic deployments).
  bool tcp = false;
  /// Load-monitor update period used by agents, seconds (paper: 60).
  double monitor_period = 60.0;
  /// Namespace prefix for ORB names, so several Infrastructures coexist.
  std::string name = "infra";
};

class Infrastructure {
 public:
  explicit Infrastructure(InfrastructureOptions options = {});
  ~Infrastructure();
  Infrastructure(const Infrastructure&) = delete;
  Infrastructure& operator=(const Infrastructure&) = delete;

  /// Ordered teardown of the whole deployment; idempotent, also run by the
  /// destructor. Stopping an ORB joins its reactor workers, which waits for
  /// in-flight handlers — and those handlers may invoke *other* ORBs (agents
  /// call the trader, the channel calls subscribers), so shutdown proceeds
  /// strictly from leaves to roots: event channel, then agents, then hosts
  /// and their ORBs, and the trader ORB last.
  void shutdown();

  // ---- time ----------------------------------------------------------
  [[nodiscard]] const ClockPtr& clock() const { return clock_; }
  [[nodiscard]] const std::shared_ptr<TimerService>& timers() const { return timers_; }
  /// Advances virtual time (SimClock only), firing monitors and workloads.
  void run_for(double seconds) { timers_->run_for(seconds); }
  [[nodiscard]] double now() const { return clock_->now(); }

  // ---- naming / transport ----------------------------------------------
  /// Creates an ORB named "<infra>/<name>" (TCP per options). ORBs share
  /// one interface repository.
  orb::OrbPtr make_orb(const std::string& name);

  // ---- trading -----------------------------------------------------------
  [[nodiscard]] trading::Trader& trader() { return *trader_; }
  [[nodiscard]] const ObjectRef& lookup_ref() const { return trader_->lookup_ref(); }
  [[nodiscard]] const ObjectRef& register_ref() const { return trader_->register_ref(); }

  // ---- naming ----------------------------------------------------------
  /// The deployment's naming service. The trader's servants are pre-bound
  /// under "services/trader/{lookup,register,repository}", so components
  /// can bootstrap from the naming ref alone.
  [[nodiscard]] orb::NamingService& naming() { return *naming_; }
  [[nodiscard]] const ObjectRef& naming_ref() const { return naming_->ref(); }

  // ---- hosts --------------------------------------------------------------
  /// Creates (and starts) a simulated host plus its ORB. The host's name
  /// doubles as the agent name.
  sim::HostPtr make_host(const std::string& name);
  [[nodiscard]] sim::HostPtr host(const std::string& name) const;
  [[nodiscard]] orb::OrbPtr host_orb(const std::string& name) const;

  // ---- agents & proxies -------------------------------------------------
  /// Creates a service agent on `host_name`'s ORB, announcing to this
  /// infrastructure's trader.
  std::shared_ptr<ServiceAgent> make_agent(const std::string& host_name);

  /// Creates a smart proxy on a fresh client ORB (or `client_orb`).
  SmartProxyPtr make_proxy(SmartProxyConfig config, orb::OrbPtr client_orb = nullptr);

  /// Shorthand: deploy a server component on a host — registers `servant`
  /// on the host's ORB, creates the agent + LoadAvg monitor and exports the
  /// offer with live load properties. Returns the provider reference.
  ObjectRef deploy_server(const std::string& host_name, const std::string& service_type,
                          orb::ServantPtr servant, trading::PropertyMap extra_props = {});

  // ---- events -----------------------------------------------------------
  /// The deployment's event channel, created lazily as a servant of the
  /// trader ORB (so it is reachable from every host, like the trader) and
  /// bound under "services/events" in the naming service. Monitors publish
  /// adaptation signals here once; the channel fans them out to any number
  /// of subscribed proxies.
  [[nodiscard]] const events::EventChannelPtr& event_channel();
  /// The channel's ObjectRef (creates the channel on first use).
  ObjectRef event_channel_ref();
  /// True when event_channel() has been created (no side effect).
  [[nodiscard]] bool has_event_channel() const { return channel_ != nullptr; }

  [[nodiscard]] std::shared_ptr<ServiceAgent> agent(const std::string& host_name) const;
  [[nodiscard]] const InfrastructureOptions& options() const { return options_; }

 private:
  InfrastructureOptions options_;
  ClockPtr clock_;
  std::shared_ptr<TimerService> timers_;
  std::shared_ptr<orb::InterfaceRepository> interfaces_;
  orb::OrbPtr trader_orb_;
  std::unique_ptr<trading::Trader> trader_;
  std::unique_ptr<orb::NamingService> naming_;
  events::EventChannelPtr channel_;  // lazy; see event_channel()
  ObjectRef channel_ref_;

  std::map<std::string, sim::HostPtr> hosts_;
  std::map<std::string, orb::OrbPtr> host_orbs_;
  std::map<std::string, std::shared_ptr<ServiceAgent>> agents_;
  bool shut_down_ = false;
};

}  // namespace adapt::core
