// Shared plumbing for the benchmark workloads: options, seeded inputs,
// latency statistics, the run result, resource checks read from /proc, and
// the traced run's span collector.
//
// Nothing here reaches inside the library: the workloads time calls into
// public functions, read the program's existing counters (obs::metrics(),
// Orb::stats()) and, in the traced run, collect the spans the program
// already records through an exporter on obs::default_tracer().
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/value.h"
#include "core/smart_proxy.h"
#include "obs/trace.h"

namespace perfbench {

using adapt::Value;
using adapt::ValueList;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// JSON-lines file the traced run writes its kept spans to ("" = none).
  std::string trace_out;
};

inline uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}
inline double us_between(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e3;
}

/// Exact percentile (nearest rank) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// SplitMix64: the workloads derive every input from --seed through this.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t state_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable reasons for correct == false.
  std::vector<std::string> problems;

  void fail(const std::string& why);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// What every workload measures for the end-to-end metrics.
struct EndToEnd {
  std::vector<double> setup_s;   ///< one deployment build per segment
  std::vector<double> call_us;   ///< every timed call
  std::vector<double> adapt_us;  ///< calls that ran an adaptation episode
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t good = 0;  ///< correct and within the workload's deadline
  double window_s = 0;
};
/// Sets the end-to-end metrics (and attempted/failed) from `e2e`.
void report_end_to_end(const EndToEnd& e2e, RunResult& result);

/// Counts of open file descriptors and threads, read from /proc/self.
struct Resources {
  int fds = 0;
  int threads = 0;
};
Resources read_resources();
/// Polls for up to two seconds until the process is back at `baseline`
/// (exiting threads and parked hedge attempts take a moment to go); records
/// a problem on `result` when it never gets there.
void check_resources(const Resources& baseline, const std::string& where, RunResult& result);

/// A fixed ALU loop, in ms. Printed beside each run as a diagnostic of the
/// machine's speed at the time; never a metric.
double reference_loop_ms();

/// Structural equality (tables compared by content, not identity).
bool deep_equal(const Value& a, const Value& b);

/// Current value of a counter in the process-wide metrics registry.
uint64_t counter_value(const std::string& name);

/// Every per-layer metric the traced run reports, with its unit. Each
/// workload fills the ones its layers exercise; the rest read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Traced run: attaches an exporter to obs::default_tracer() and folds each
/// finished span into per-layer self times. A span's self time is its
/// duration minus the part of its interval its child spans cover; children
/// always finish before their parent (server spans finish before the reply
/// is written), so the fold runs online and only a bounded prefix of the
/// raw spans is kept for writing out.
class SpanCollector {
 public:
  enum Layer : size_t { kBench = 0, kCore, kScript, kTrading, kMonitor, kOrb, kOther, kLayers };
  static const char* layer_name(size_t layer);

  SpanCollector() = default;
  ~SpanCollector() { detach(); }
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  void attach();
  void detach();

  /// Samples (µs) recorded under `key`, e.g. "core.invoke_self".
  [[nodiscard]] std::vector<double> samples(const std::string& key) const;
  /// Per-call layer self times of the benchmark root spans named `root`.
  [[nodiscard]] std::vector<std::array<double, kLayers>> roots(const std::string& root) const;
  /// Durations (µs) of the benchmark root spans named `root`.
  [[nodiscard]] std::vector<double> root_durations(const std::string& root) const;
  /// Writes the kept spans as JSON lines; returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  void on_span(const adapt::obs::Span& span);

  struct Interval {
    uint64_t start = 0;
    uint64_t end = 0;
  };

  /// Raw spans kept for writing out; the fold itself sees every span.
  static constexpr size_t kKeptSpans = 20000;

  mutable std::mutex mu_;
  bool attached_ = false;
  std::unordered_map<uint64_t, std::vector<Interval>> children_;  // by parent span id
  std::unordered_map<uint64_t, std::array<double, kLayers>> traces_;  // by trace_lo
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::vector<std::array<double, kLayers>>> roots_;
  std::map<std::string, std::vector<double>> root_durations_;
  std::vector<adapt::obs::Span> kept_;
};

/// Layer-sum check: the medians of each layer's per-call self time, summed
/// over the layers on the blocking path, against the untraced end-to-end
/// median. Returns the ratio sum / untraced.
double layer_sum_ratio(const std::vector<std::array<double, SpanCollector::kLayers>>& calls,
                       double untraced_p50_us, std::string* breakdown);

/// Tolerance of the layer-sum check: the summed medians must land within
/// this share of the untraced median.
inline constexpr double kLayerSumTolerance = 0.35;

/// Outcome of a closed-loop window.
struct LoopStats {
  std::vector<double> latency_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< wrong result, exception or over the deadline
  uint64_t good = 0;
  double wall_s = 0;
};

/// Runs `threads` closed-loop callers for `seconds`: each calls
/// `call(thread, sequence)` again as soon as the previous call returned.
/// `call` returns true when the result was correct; a call that throws or
/// takes longer than `deadline_s` counts as failed. In the traced run each
/// call is wrapped in a "bench.call" root span.
LoopStats closed_loop(int threads, double seconds, double deadline_s, bool traced,
                      const std::function<bool(int, uint64_t)>& call);

/// Adaptation probes for workloads whose window has no events: `count`
/// times, queue one "Reselect" event on `proxy` and time the next call,
/// which runs the strategy (trader query, rebind) before forwarding. In the
/// traced run the episode is timed on its own through an explicit
/// handle_pending_events() inside a "bench.adapt" root span.
void adaptation_probes(adapt::core::SmartProxy& proxy, int count, bool traced,
                       const std::function<bool()>& call, std::vector<double>& adapt_us,
                       std::vector<double>& episode_us, RunResult& result);

/// Strategy the probes fire: re-select through the trader and refresh the
/// replica set when the proxy balances.
void install_reselect_strategy(adapt::core::SmartProxy& proxy);

RunResult run_rpc_mix(const Options& options);
RunResult run_adapt_churn(const Options& options);
RunResult run_replica_brownout(const Options& options);

}  // namespace perfbench
