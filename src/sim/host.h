// Simulated host with a UNIX-style load average — the substitute for the
// paper's lab machines and their /proc/loadavg (see DESIGN.md,
// substitutions).
//
// Model:
//  * A host runs `background_jobs` long-lived CPU hogs (injected load) plus
//    the CPU work recorded by its server components (`record_work`).
//  * Every 5 s (like the kernel) the host samples its ready-queue length n
//    and folds it into three exponentially damped averages with
//    1/5/15-minute horizons:
//        load := load * e^(-dt/T) + n * (1 - e^(-dt/T))
//  * Response times follow a processor-sharing approximation:
//        response = base * (1 + ready_jobs)
//
// All timing runs over a Clock/TimerService, so experiments use virtual
// time; `read_proc_loadavg()` offers the real thing on Linux for the
// quickstart example.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "base/timer_service.h"
#include "base/value.h"

namespace adapt::sim {

struct HostConfig {
  std::string name = "host";
};

class Host : public std::enable_shared_from_this<Host> {
 public:
  Host(HostConfig config, std::shared_ptr<TimerService> timers);
  ~Host();
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Begins periodic load sampling. Idempotent.
  void start();
  void stop();

  [[nodiscard]] const std::string& name() const { return config_.name; }

  // ---- load injection ------------------------------------------------
  /// Adds long-running CPU jobs (external load, like the paper's clients
  /// loading a server machine). Negative delta removes jobs (floor 0).
  void add_background_jobs(double delta);
  void set_background_jobs(double n);
  [[nodiscard]] double background_jobs() const;

  /// Records `cpu_seconds` of work done by a server component on this host.
  /// The work shows up in the ready queue as utilization at the next sample.
  void record_work(double cpu_seconds);

  /// Current ready-queue estimate: background jobs + induced utilization.
  [[nodiscard]] double ready_jobs() const;

  // ---- observable signals -------------------------------------------
  /// {1min, 5min, 15min} exponentially damped load averages.
  [[nodiscard]] std::array<double, 3> loadavg() const;
  /// Same as a script/wire value: table {l1, l5, l15} (paper Fig. 3 shape).
  [[nodiscard]] Value loadavg_value() const;

  /// Processor-sharing response time for a request needing `base` seconds.
  [[nodiscard]] double response_time(double base_seconds) const;

  /// Total CPU work recorded on this host (diagnostics).
  [[nodiscard]] double total_work() const;

  [[nodiscard]] const std::shared_ptr<TimerService>& timers() const { return timers_; }

 private:
  void sample();

  HostConfig config_;
  std::shared_ptr<TimerService> timers_;
  TimerService::TaskId task_ = 0;

  mutable std::mutex mu_;
  double background_ = 0;
  double pending_work_ = 0;   // work recorded since the last sample
  double induced_ = 0;        // utilization estimate from the last sample
  double total_work_ = 0;
  std::array<double, 3> load_ = {0, 0, 0};
};

using HostPtr = std::shared_ptr<Host>;

/// Native update function for a LoadAvg monitor on `host`: returns the
/// {l1, l5, l15} table — drop-in for the Fig. 3 /proc/loadavg reader.
CallablePtr make_loadavg_source(const HostPtr& host);

/// Reads the real /proc/loadavg; nullopt when unavailable.
std::optional<std::array<double, 3>> read_proc_loadavg();

}  // namespace adapt::sim
