// Metrics registry: named counters, gauges and log-bucketed latency
// histograms with percentile snapshots.
//
// Instruments are created on first use and live for the registry's lifetime,
// so call sites may cache the returned reference and update it with plain
// relaxed atomics — no lock on the hot path. Histograms bucket values by
// bit width (power-of-two buckets), which keeps `record` at three
// fetch_adds (bucket, count, sum) plus the min/max compare-and-swap loops
// (which exit after one load unless the value sets a new extreme), and
// yields p50/p95/p99 estimates within one octave, plenty for spotting
// latency regressions and for adaptation strategies comparing providers.
//
// OrbStatsCounters (src/orb/stats.h) is re-expressed on top of this
// registry: every ORB's transport counters are registry instruments under
// the "orb.<name>." prefix, so `metrics.snapshot()` in Luma and the JSON
// export see transport health alongside application metrics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/value.h"

namespace adapt::obs {

/// Monotonic counter.
class Counter {
 public:
  void add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta);
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram of non-negative integer samples (typically
/// nanoseconds). Bucket i holds samples whose bit width is i, i.e. values in
/// [2^(i-1), 2^i); percentiles interpolate linearly inside the bucket.
class Histogram {
 public:
  /// One bucket per possible bit width, 0 through 64 — bucket 64 holds
  /// values with the top bit set, so record(UINT64_MAX) stays in range.
  static constexpr size_t kBuckets = 65;

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  void record(uint64_t value);
  [[nodiscard]] Snapshot snapshot() const;
  void reset();

 private:
  [[nodiscard]] double percentile(const std::array<uint64_t, kBuckets>& buckets,
                                  uint64_t count, double q) const;

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Name -> instrument registry. Creation takes a lock; returned references
/// stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] std::vector<std::string> counter_names() const;
  [[nodiscard]] std::vector<std::string> gauge_names() const;
  [[nodiscard]] std::vector<std::string> histogram_names() const;

  /// Luma view: { counters = {name=value}, gauges = {name=value},
  /// histograms = {name={count,sum,mean,min,max,p50,p95,p99}} }.
  [[nodiscard]] Value to_value() const;
  /// One JSON object mirroring to_value (for dumps and bench output).
  [[nodiscard]] std::string to_json() const;

  /// Zeroes every instrument (instruments stay registered). For tests and
  /// benches wanting clean deltas.
  void reset();

 private:
  mutable std::mutex mu_;  // guards the maps, not the instruments
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-wide default registry (ORB stats, monitor metrics, Luma
/// `metrics.*` all land here).
[[nodiscard]] MetricsRegistry& metrics();

}  // namespace adapt::obs
