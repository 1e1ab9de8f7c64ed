#include "sim/host.h"

#include <cmath>
#include <fstream>

namespace adapt::sim {

namespace {

constexpr double kSamplePeriod = 5.0;  // seconds between loadavg samples
/// Smoothing horizons for the three load averages, seconds.
constexpr std::array<double, 3> kWindows = {60.0, 300.0, 900.0};

}  // namespace

Host::Host(HostConfig config, std::shared_ptr<TimerService> timers)
    : config_(std::move(config)), timers_(std::move(timers)) {
  if (!timers_) throw Error("Host requires a TimerService");
}

Host::~Host() { stop(); }

void Host::start() {
  if (task_ != 0) return;
  std::weak_ptr<Host> weak = weak_from_this();
  task_ = timers_->schedule_every(kSamplePeriod, [weak] {
    if (auto self = weak.lock()) self->sample();
  });
}

void Host::stop() {
  if (task_ == 0) return;
  timers_->cancel(task_);
  task_ = 0;
}

void Host::add_background_jobs(double delta) {
  std::scoped_lock lock(mu_);
  background_ = std::max(0.0, background_ + delta);
}

void Host::set_background_jobs(double n) {
  std::scoped_lock lock(mu_);
  background_ = std::max(0.0, n);
}

double Host::background_jobs() const {
  std::scoped_lock lock(mu_);
  return background_;
}

void Host::record_work(double cpu_seconds) {
  if (cpu_seconds <= 0) return;
  std::scoped_lock lock(mu_);
  pending_work_ += cpu_seconds;
  total_work_ += cpu_seconds;
}

double Host::ready_jobs() const {
  std::scoped_lock lock(mu_);
  return background_ + induced_;
}

std::array<double, 3> Host::loadavg() const {
  std::scoped_lock lock(mu_);
  return load_;
}

Value Host::loadavg_value() const {
  const auto l = loadavg();
  return Value(Table::make_array({Value(l[0]), Value(l[1]), Value(l[2])}));
}

double Host::response_time(double base_seconds) const {
  return base_seconds * (1.0 + ready_jobs());
}

double Host::total_work() const {
  std::scoped_lock lock(mu_);
  return total_work_;
}

void Host::sample() {
  std::scoped_lock lock(mu_);
  // Utilization induced by served requests over the last sample interval.
  induced_ = pending_work_ / kSamplePeriod;
  pending_work_ = 0;
  const double n = background_ + induced_;
  for (size_t i = 0; i < load_.size(); ++i) {
    const double decay = std::exp(-kSamplePeriod / kWindows[i]);
    load_[i] = load_[i] * decay + n * (1.0 - decay);
  }
}

CallablePtr make_loadavg_source(const HostPtr& host) {
  std::weak_ptr<Host> weak = host;
  return NativeFunction::make("loadavg:" + host->name(), [weak](const ValueList&) -> ValueList {
    auto self = weak.lock();
    if (!self) throw Error("loadavg source: host is gone");
    return {self->loadavg_value()};
  });
}

std::optional<std::array<double, 3>> read_proc_loadavg() {
  std::ifstream in("/proc/loadavg");
  if (!in.is_open()) return std::nullopt;
  std::array<double, 3> load{};
  if (!(in >> load[0] >> load[1] >> load[2])) return std::nullopt;
  return load;
}

}  // namespace adapt::sim
