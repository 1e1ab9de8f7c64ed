#include "core/infrastructure.h"

#include "trading/script_bindings.h"

namespace adapt::core {

Infrastructure::Infrastructure(InfrastructureOptions options)
    : options_(std::move(options)) {
  if (options_.simulated_time) {
    clock_ = std::make_shared<SimClock>();
  } else {
    clock_ = std::make_shared<RealClock>();
  }
  timers_ = std::make_shared<TimerService>(clock_);
  interfaces_ = std::make_shared<orb::InterfaceRepository>();
  trader_orb_ = make_orb("trader");
  trader_ = std::make_unique<trading::Trader>(trader_orb_, trading::TraderConfig{
                                                               .name = options_.name,
                                                               .rng_seed = 1234,
                                                               .clock = clock_,
                                                           });
  naming_ = std::make_unique<orb::NamingService>(trader_orb_);
  naming_->bind("services/trader/lookup", trader_->lookup_ref());
  naming_->bind("services/trader/register", trader_->register_ref());
  naming_->bind("services/trader/repository", trader_->repository_ref());
}

Infrastructure::~Infrastructure() { shutdown(); }

void Infrastructure::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // The channel's delivery threads invoke through ORBs; stop them while
  // every ORB is still alive.
  if (channel_) channel_->shutdown();
  // Agents withdraw their offers before the trader goes away.
  agents_.clear();
  for (auto& [name, host] : hosts_) host->stop();
  // Host ORBs stop before the trader ORB: stopping joins reactor workers,
  // so any handler still running on a host ORB can complete its nested
  // trader calls instead of timing out against a dead endpoint.
  for (auto& [name, orb] : host_orbs_) orb->shutdown();
  trader_orb_->shutdown();
}

const events::EventChannelPtr& Infrastructure::event_channel() {
  if (!channel_) {
    events::define_event_interfaces(*interfaces_);
    channel_ = events::EventChannel::create(trader_orb_,
                                            events::EventChannelConfig{
                                                .name = options_.name + "/events",
                                            });
    channel_ref_ = trader_orb_->register_servant(channel_, "services/events");
    naming_->bind("services/events", channel_ref_);
  }
  return channel_;
}

ObjectRef Infrastructure::event_channel_ref() {
  (void)event_channel();
  return channel_ref_;
}

orb::OrbPtr Infrastructure::make_orb(const std::string& name) {
  orb::OrbConfig cfg;
  cfg.name = options_.name + "/" + name;
  cfg.listen_tcp = options_.tcp;
  cfg.interfaces = interfaces_;
  return orb::Orb::create(cfg);
}

sim::HostPtr Infrastructure::make_host(const std::string& name) {
  if (hosts_.count(name) != 0) throw Error("host already exists: " + name);
  auto host = std::make_shared<sim::Host>(sim::HostConfig{.name = name}, timers_);
  host->start();
  hosts_[name] = host;
  host_orbs_[name] = make_orb(name);
  return host;
}

sim::HostPtr Infrastructure::host(const std::string& name) const {
  const auto it = hosts_.find(name);
  if (it == hosts_.end()) throw Error("no such host: " + name);
  return it->second;
}

orb::OrbPtr Infrastructure::host_orb(const std::string& name) const {
  const auto it = host_orbs_.find(name);
  if (it == host_orbs_.end()) throw Error("no such host: " + name);
  return it->second;
}

std::shared_ptr<ServiceAgent> Infrastructure::make_agent(const std::string& host_name) {
  if (const auto it = agents_.find(host_name); it != agents_.end()) return it->second;
  auto agent = std::make_shared<ServiceAgent>(
      host_orb(host_name), trader_->register_ref(), timers_,
      ServiceAgentConfig{.name = host_name, .monitor_period = options_.monitor_period});
  // Agent scripts get LuaTrading (paper SIV) alongside the monitor bindings.
  trading::install_trading_bindings(*agent->engine(), host_orb(host_name),
                                    trading::trader_refs(*trader_));
  agents_[host_name] = agent;
  return agent;
}

std::shared_ptr<ServiceAgent> Infrastructure::agent(const std::string& host_name) const {
  const auto it = agents_.find(host_name);
  if (it == agents_.end()) throw Error("no agent on host: " + host_name);
  return it->second;
}

SmartProxyPtr Infrastructure::make_proxy(SmartProxyConfig config, orb::OrbPtr client_orb) {
  static std::atomic<uint64_t> counter{1};
  if (!client_orb) client_orb = make_orb("client-" + std::to_string(counter++));
  // Replica-set TTLs and breaker cooldowns run on the infrastructure clock,
  // so simulated-time experiments drive them deterministically.
  if (!config.lb.clock) config.lb.clock = clock_;
  return SmartProxy::create(std::move(client_orb), trader_->lookup_ref(), std::move(config));
}

ObjectRef Infrastructure::deploy_server(const std::string& host_name,
                                        const std::string& service_type,
                                        orb::ServantPtr servant,
                                        trading::PropertyMap extra_props) {
  if (hosts_.count(host_name) == 0) make_host(host_name);
  const ObjectRef provider = host_orb(host_name)->register_servant(std::move(servant));
  auto agent = make_agent(host_name);
  auto load_monitor = agent->create_load_monitor(host(host_name));
  agent->export_with_load(service_type, provider, load_monitor, std::move(extra_props));
  return provider;
}

}  // namespace adapt::core
