#include "common.h"

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/metrics.h"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(index), v.end());
  return v[index];
}

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void RunResult::fail(const std::string& why) {
  correct = false;
  // One line per distinct reason is enough to diagnose a run.
  if (problems.size() < 20) problems.push_back(why);
}

void report_end_to_end(const EndToEnd& e2e, RunResult& result) {
  result.attempted = e2e.attempted;
  result.failed = e2e.failed;
  result.set("setup_s", median(e2e.setup_s), "s");
  result.set("goodput_per_s", static_cast<double>(e2e.good) / e2e.window_s, "1/s");
  result.set("call_p50_us", percentile(e2e.call_us, 0.50), "us");
  result.set("call_p90_us", percentile(e2e.call_us, 0.90), "us");
  result.set("call_p99_us", percentile(e2e.call_us, 0.99), "us");
  result.set("adapt_p50_us", median(e2e.adapt_us), "us");
}

namespace {

int count_dir_entries(const char* path) {
  DIR* dir = opendir(path);
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

}  // namespace

Resources read_resources() {
  return Resources{count_dir_entries("/proc/self/fd"), count_dir_entries("/proc/self/task")};
}

void check_resources(const Resources& baseline, const std::string& where, RunResult& result) {
  Resources now = read_resources();
  for (int i = 0; i < 200 && (now.fds != baseline.fds || now.threads != baseline.threads); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now = read_resources();
  }
  if (now.fds != baseline.fds || now.threads != baseline.threads) {
    std::ostringstream os;
    os << where << ": fds " << baseline.fds << " -> " << now.fds << ", threads "
       << baseline.threads << " -> " << now.threads;
    result.fail(os.str());
  }
}

double reference_loop_ms() {
  const uint64_t start = now_ns();
  volatile uint64_t sink = 0;
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return static_cast<double>(now_ns() - start) / 1e6;
}

bool deep_equal(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_table()) return a == b;
  const adapt::Table& ta = *a.as_table();
  const adapt::Table& tb = *b.as_table();
  if (ta.size() != tb.size()) return false;
  for (const auto& [key, value] : ta) {
    if (!deep_equal(value, tb.get(key.to_value()))) return false;
  }
  return true;
}

uint64_t counter_value(const std::string& name) {
  return adapt::obs::metrics().counter(name).value();
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.invoke_self_us", "us"},
      {"core.adapt_episode_us", "us"},
      {"core.events_per_adapt", "count"},
      {"core.rebind_us", "us"},
      {"script.strategy_self_us", "us"},
      {"script.lint_per_adapt", "count"},
      {"script.lint_cache_hit_ratio", "1"},
      {"trading.query_us", "us"},
      {"trading.query_self_us", "us"},
      {"trading.evaldp_per_query", "count"},
      {"trading.export_us", "us"},
      {"trading.withdraw_us", "us"},
      {"monitor.tick_us", "us"},
      {"monitor.aspect_evals_per_tick", "count"},
      {"monitor.predicate_evals_per_tick", "count"},
      {"monitor.notifications_per_adapt", "count"},
      {"monitor.evaldp_us", "us"},
      {"orb.client_self_us", "us"},
      {"orb.server_self_us", "us"},
      {"orb.evaldp_gap_us", "us"},
      {"orb.codec_us", "us"},
      {"orb.bytes_per_call", "B"},
      {"orb.conn_reuse_ratio", "1"},
      {"orb.reactor_frames_per_call", "count"},
      {"orb.retries_per_kcall", "count"},
      {"orb.overloads_per_kcall", "count"},
      {"orb.shed_per_kcall", "count"},
      {"orb.expired_per_kcall", "count"},
      {"orb.timeouts_per_kcall", "count"},
      {"orb.admission_wait_us", "us"},
      {"lb.degraded_share", "1"},
      {"lb.hedge_per_kcall", "count"},
      {"lb.hedge_win_ratio", "1"},
      {"lb.breaker_opens", "count"},
      {"obs.spans_per_call", "count"},
      {"obs.tracing_overhead_pct", "%"},
      {"obs.layer_sum_ratio", "1"},
  };
  return kMetrics;
}

LoopStats closed_loop(int threads, double seconds, double deadline_s, bool traced,
                      const std::function<bool(int, uint64_t)>& call) {
  std::vector<LoopStats> per_thread(static_cast<size_t>(threads));
  std::atomic<bool> go{false};
  const uint64_t deadline_ns = static_cast<uint64_t>(deadline_s * 1e9);
  uint64_t start = 0;
  uint64_t end = 0;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      LoopStats& stats = per_thread[static_cast<size_t>(t)];
      stats.latency_us.reserve(1 << 16);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t seq = 0;; ++seq) {
        const uint64_t t0 = now_ns();
        if (t0 >= end) break;
        bool ok = false;
        try {
          if (traced) {
            adapt::obs::ScopedSpan span("bench.call");
            ok = call(t, seq);
          } else {
            ok = call(t, seq);
          }
        } catch (const std::exception&) {
          ok = false;
        }
        const uint64_t t1 = now_ns();
        ++stats.attempted;
        stats.latency_us.push_back(us_between(t0, t1));
        if (ok && t1 - t0 <= deadline_ns) {
          ++stats.good;
        } else {
          ++stats.failed;
        }
      }
    });
  }
  start = now_ns();
  end = start + static_cast<uint64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  LoopStats total;
  total.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  for (LoopStats& stats : per_thread) {
    total.attempted += stats.attempted;
    total.failed += stats.failed;
    total.good += stats.good;
    total.latency_us.insert(total.latency_us.end(), stats.latency_us.begin(),
                            stats.latency_us.end());
  }
  return total;
}

void install_reselect_strategy(adapt::core::SmartProxy& proxy) {
  proxy.set_strategy("Reselect", [](adapt::core::SmartProxy& p) {
    p.select();
    if (const auto set = p.replica_set()) set->refresh(/*force=*/true);
  });
}

void adaptation_probes(adapt::core::SmartProxy& proxy, int count, bool traced,
                       const std::function<bool()>& call, std::vector<double>& adapt_us,
                       std::vector<double>& episode_us, RunResult& result) {
  for (int i = 0; i < count; ++i) {
    proxy.enqueue_event("Reselect");
    bool ok = false;
    const uint64_t t0 = now_ns();
    if (traced) {
      adapt::obs::ScopedSpan span("bench.adapt");
      proxy.handle_pending_events();
      episode_us.push_back(us_between(t0, now_ns()));
      ok = call();
    } else {
      ok = call();
    }
    adapt_us.push_back(us_between(t0, now_ns()));
    if (!ok) result.fail("adaptation probe returned a wrong result");
  }
}

// ---- SpanCollector ---------------------------------------------------------

const char* SpanCollector::layer_name(size_t layer) {
  static const char* const kNames[kLayers] = {"bench",   "core", "script", "trading",
                                              "monitor", "orb",  "other"};
  return layer < kLayers ? kNames[layer] : "?";
}

void SpanCollector::attach() {
  {
    std::scoped_lock lock(mu_);
    if (attached_) return;
    attached_ = true;
  }
  adapt::obs::default_tracer().set_exporter(
      [this](const adapt::obs::Span& span) { on_span(span); });
}

void SpanCollector::detach() {
  {
    std::scoped_lock lock(mu_);
    if (!attached_) return;
    attached_ = false;
  }
  adapt::obs::default_tracer().set_exporter(nullptr);
}

namespace {

bool starts_with(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

/// Operations the benchmark's own servants implement.
bool is_app_operation(const std::string& op) {
  return op == "echo" || op == "read" || op == "write" || op == "work";
}

bool is_monitor_operation(const std::string& op) {
  return op == "evalDP" || op == "getvalue" || op == "getAspectValue" ||
         op == "attachEventObserver" || op == "detachEventObserver" || op == "defineAspect";
}

}  // namespace

void SpanCollector::on_span(const adapt::obs::Span& span) {
  using adapt::obs::SpanKind;
  std::scoped_lock lock(mu_);
  if (kept_.size() < kKeptSpans) kept_.push_back(span);

  const uint64_t start = span.start_ns;
  const uint64_t end = span.start_ns + span.duration_ns;
  uint64_t covered = 0;
  if (const auto it = children_.find(span.span_id); it != children_.end()) {
    std::vector<Interval>& kids = it->second;
    std::sort(kids.begin(), kids.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
    uint64_t cursor = start;
    for (const Interval& kid : kids) {
      const uint64_t lo = std::max(kid.start, cursor);
      const uint64_t hi = std::min(kid.end, end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    children_.erase(it);
  }
  if (span.parent_id != 0) children_[span.parent_id].push_back(Interval{start, end});

  const double duration_us = static_cast<double>(span.duration_ns) / 1e3;
  const double self_us = static_cast<double>(span.duration_ns - covered) / 1e3;
  const std::string& name = span.name;
  size_t layer = kOther;
  if (starts_with(name, "bench.")) {
    layer = kBench;
  } else if (starts_with(name, "proxy.invoke:")) {
    layer = kCore;
    samples_["core.invoke_self"].push_back(self_us);
  } else if (starts_with(name, "proxy.rebind:")) {
    layer = kCore;
    samples_["core.rebind"].push_back(duration_us);
  } else if (starts_with(name, "proxy.event:")) {
    layer = kScript;
    samples_["script.strategy_self"].push_back(self_us);
  } else if (starts_with(name, "aspect:")) {
    layer = kMonitor;
  } else if (starts_with(name, "luma.")) {
    layer = kScript;
  } else if (span.kind == SpanKind::Server) {
    if (name == "query") {
      layer = kTrading;
      samples_["trading.query"].push_back(duration_us);
      samples_["trading.query_self"].push_back(self_us);
    } else if (name == "export" || name == "withdraw" || name == "modify") {
      layer = kTrading;
    } else if (is_monitor_operation(name)) {
      layer = kMonitor;
      if (name == "evalDP") samples_["monitor.evaldp"].push_back(duration_us);
    } else if (name == "notifyEvent" || name == "notifyEvents") {
      layer = kCore;
    } else {
      layer = kOrb;
      if (is_app_operation(name)) samples_["orb.server_self"].push_back(self_us);
    }
  } else if (span.kind == SpanKind::Client) {
    layer = kOrb;
    if (is_app_operation(name)) samples_["orb.client_self"].push_back(self_us);
    if (name == "evalDP") samples_["orb.evaldp_gap"].push_back(self_us);
  }

  if (span.parent_id != 0) {
    traces_[span.trace_lo][layer] += self_us;
    return;
  }
  // A root finishes after everything it caused: close its trace.
  const auto it = traces_.find(span.trace_lo);
  if (layer == kBench) {
    std::array<double, kLayers> acc{};
    if (it != traces_.end()) acc = it->second;
    acc[kBench] += self_us;
    roots_[name].push_back(acc);
    root_durations_[name].push_back(duration_us);
  }
  if (it != traces_.end()) traces_.erase(it);
}

std::vector<double> SpanCollector::samples(const std::string& key) const {
  std::scoped_lock lock(mu_);
  const auto it = samples_.find(key);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

std::vector<std::array<double, SpanCollector::kLayers>> SpanCollector::roots(
    const std::string& root) const {
  std::scoped_lock lock(mu_);
  const auto it = roots_.find(root);
  return it == roots_.end() ? std::vector<std::array<double, kLayers>>{} : it->second;
}

std::vector<double> SpanCollector::root_durations(const std::string& root) const {
  std::scoped_lock lock(mu_);
  const auto it = root_durations_.find(root);
  return it == root_durations_.end() ? std::vector<double>{} : it->second;
}

bool SpanCollector::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::scoped_lock lock(mu_);
  for (const adapt::obs::Span& span : kept_) out << adapt::obs::span_to_json(span) << '\n';
  return static_cast<bool>(out);
}

double layer_sum_ratio(const std::vector<std::array<double, SpanCollector::kLayers>>& calls,
                       double untraced_p50_us, std::string* breakdown) {
  if (calls.empty() || untraced_p50_us <= 0) return 0.0;
  std::ostringstream os;
  double sum = 0;
  for (size_t layer = SpanCollector::kCore; layer < SpanCollector::kLayers; ++layer) {
    std::vector<double> per_call;
    per_call.reserve(calls.size());
    for (const auto& call : calls) per_call.push_back(call[layer]);
    const double m = median(std::move(per_call));
    sum += m;
    os << SpanCollector::layer_name(layer) << '=' << m << "us ";
  }
  os << "sum=" << sum << "us untraced_p50=" << untraced_p50_us << "us";
  if (breakdown != nullptr) *breakdown = os.str();
  return sum / untraced_p50_us;
}

}  // namespace perfbench
