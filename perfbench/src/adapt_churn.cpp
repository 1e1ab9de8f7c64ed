// adapt_churn — the paper's §V load-sharing loop under churn.
//
// In-process and single-threaded on a SimClock, so everything but wall time
// is a function of the seed. Tens of hosts, each with a service agent and a
// Fig. 3 LoadAvg monitor, export offers whose LoadAvg/LoadAvgIncreasing
// properties are dynamic (served by evalDP); a few hundred static filler
// offers make every query scan a market of C4 size. Several smart proxies
// carry the Fig. 4 predicate and the Fig. 7 Luma strategy. A seeded
// schedule spikes the hosts the proxies are bound to, relieves earlier
// spikes and restarts hosts (a trader withdraw plus export, timed through
// the public Trader API), so trader writes sit beside the proxies' queries.
//
// script, trading, monitor and core's rebind path do almost all the work;
// orb is only in-process dispatch. The wall time behind goodput_per_s
// includes the monitor ticks: the monitors share the CPU with the clients.
//
// A segment builds the deployment (one setup_s sample), plays one schedule,
// checks its outputs and tears down. The seed yields kVariants schedules,
// played in cycles until the window is used up; every replay of a schedule
// must produce the same counts and binding checksum as its first play (the
// determinism self-test), and a schedule from another seed must produce a
// different checksum.
#include <cmath>
#include <iostream>
#include <sstream>

#include "common.h"
#include "core/infrastructure.h"

namespace perfbench {

namespace {

using namespace adapt;

constexpr int kHosts = 24;
constexpr int kFillers = 300;
constexpr int kProxies = 4;
constexpr int kRounds = 10;
constexpr int kStepsPerRound = 6;
constexpr double kStepS = 10.0;          // simulated seconds between client calls
constexpr double kMonitorPeriodS = 5.0;  // monitor update period, simulated
// A spike large enough to cross the Fig. 4 threshold at the first host
// sample after it: every adapting call then finds the same number of queued
// events, so adapt_p50_us measures one kind of episode, not a mix.
constexpr double kSpikeJobs = 1000.0;
constexpr int kReliefRounds = 2;         // a spike is relieved this many rounds later
constexpr double kSpikeShare = 0.6;      // chance a proxy's host is spiked in a round
constexpr double kRestartShare = 0.3;    // chance of a host restart in a round
constexpr double kDeadlineS = 0.25;      // a call slower than this is not goodput
// Distinct schedules per run, played round-robin: a run averages over many
// schedules, so its figures do not hinge on the luck of one seed.
constexpr int kVariants = 8;

// Fig. 4: the event-diagnosing function each proxy ships to its monitor.
constexpr const char* kPredicate = R"(function(observer, value, monitor)
  local incr
  incr = monitor:getAspectValue("increasing")
  return value[1] > 50 and incr == "yes"
end)";

// Fig. 7, verbatim apart from comments.
constexpr const char* kStrategy = R"(
  smartproxy._strategies = {
    LoadIncrease = function(self)
      self._loadavg = self._loadavgmon:getvalue()
      local query
      query = "LoadAvg < 50 and LoadAvgIncreasing == 'no' "
      if not self:_select(query) then
        self._loadavgmon:attachEventObserver(
          self._observer,
          "LoadIncrease",
          [[function(observer, value, monitor)
            local incr
            incr = monitor:getAspectValue("increasing")
            return value[1] > 70 and incr == "yes"
          end]])
      end
    end
  }
)";

struct Round {
  std::array<bool, kProxies> spike{};
  int restart = -1;  // host index, -1 for none
};

std::vector<Round> make_schedule(uint64_t seed, int variant) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(variant));
  std::vector<Round> rounds(kRounds);
  for (Round& round : rounds) {
    for (bool& spike : round.spike) spike = rng.uniform() < kSpikeShare;
    if (rng.uniform() < kRestartShare) round.restart = static_cast<int>(rng.below(kHosts));
  }
  return rounds;
}

/// Everything a segment does that must repeat exactly for a fixed seed.
struct Counts {
  uint64_t calls = 0, adapts = 0, events = 0, queries = 0, evaldp = 0, lint = 0,
           lint_hits = 0, rebinds = 0, updates = 0, aspect_evals = 0, predicate_evals = 0,
           notifications = 0, restarts = 0, checksum = 0;

  bool operator==(const Counts&) const = default;
  /// Sums everything; checksums chain in order.
  Counts& operator+=(const Counts& o) {
    calls += o.calls;
    adapts += o.adapts;
    events += o.events;
    queries += o.queries;
    evaldp += o.evaldp;
    lint += o.lint;
    lint_hits += o.lint_hits;
    rebinds += o.rebinds;
    updates += o.updates;
    aspect_evals += o.aspect_evals;
    predicate_evals += o.predicate_evals;
    notifications += o.notifications;
    restarts += o.restarts;
    checksum = checksum * 0x100000001B3ULL ^ o.checksum;
    return *this;
  }
  [[nodiscard]] std::string str() const {
    std::ostringstream os;
    os << "calls=" << calls << " adapts=" << adapts << " events=" << events
       << " queries=" << queries << " evalDP=" << evaldp << " lint=" << lint
       << " lint_hits=" << lint_hits << " rebinds=" << rebinds << " monitor_updates=" << updates
       << " aspect_evals=" << aspect_evals << " predicate_evals=" << predicate_evals
       << " notifications=" << notifications << " restarts=" << restarts
       << " checksum=" << std::hex << checksum << std::dec;
    return os.str();
  }
};

struct Pass {
  EndToEnd e2e;
  std::vector<double> episode_us, tick_us, export_us, withdraw_us;
  uint64_t spans = 0;
};

uint64_t fnv1a(uint64_t hash, const std::string& s) {
  for (const unsigned char c : s) hash = (hash ^ c) * 0x100000001B3ULL;
  return (hash ^ 0xFF) * 0x100000001B3ULL;
}

/// Counters the program keeps, read around the window.
struct Snapshot {
  uint64_t events, rebinds, lint, lint_hits, queries, evaldp, aspect_evals, predicate_evals,
      notifications, spans;
};

Snapshot snapshot(core::Infrastructure& infra) {
  return Snapshot{
      counter_value("proxy.events_handled"),
      counter_value("proxy.rebinds"),
      counter_value("luma.lint.analyzed"),
      counter_value("luma.lint.cache_hit"),
      counter_value("orb.churn/trader.requests_served"),
      infra.trader().dynamic_evals(),
      counter_value("monitor.aspect_evals"),
      counter_value("monitor.predicate_evals"),
      counter_value("monitor.notifications"),
      obs::default_tracer().recorded(),
  };
}

/// One segment: build the deployment, play the schedule, check, tear down.
Counts run_segment(const std::vector<Round>& schedule, bool traced, bool measured, Pass& pass,
                   RunResult& result) {
  const Resources baseline = read_resources();
  const uint64_t setup_start = now_ns();
  auto infra = std::make_unique<core::Infrastructure>(core::InfrastructureOptions{
      .simulated_time = true, .monitor_period = kMonitorPeriodS, .name = "churn"});
  trading::ServiceTypeDef type;
  type.name = "Compute";
  type.properties = {{"LoadAvg", "number", trading::PropertyDef::Mode::Normal},
                     {"Host", "string", trading::PropertyDef::Mode::Normal}};
  infra->trader().types().add(type);

  std::vector<std::shared_ptr<monitor::EventMonitor>> monitors;
  std::vector<std::string> offers;  // current offer id per host
  std::map<std::string, std::string> host_of_provider;
  for (int h = 0; h < kHosts; ++h) {
    const std::string name = "h" + std::to_string(h);
    auto host = infra->make_host(name);
    auto servant = orb::FunctionServant::make("Compute");
    // Each request costs its host a little CPU, like the paper's servers.
    servant->on("work", [host](const ValueList&) {
      host->record_work(0.05);
      return Value(host->name());
    });
    const ObjectRef provider = infra->host_orb(name)->register_servant(servant);
    auto agent = infra->make_agent(name);
    monitors.push_back(agent->create_load_monitor(host));
    offers.push_back(agent->export_with_load("Compute", provider, monitors.back()));
    host_of_provider[provider.str()] = name;
  }
  orb::OrbPtr filler_orb = infra->make_orb("fillers");
  auto filler = orb::FunctionServant::make("Compute");
  filler->on("work", [](const ValueList&) { return Value("filler"); });
  const ObjectRef filler_ref = filler_orb->register_servant(filler);
  host_of_provider[filler_ref.str()] = "filler";
  for (int i = 0; i < kFillers; ++i) {
    // Static offers that never satisfy the primary constraint but that
    // every query has to scan. All share one provider, which answers
    // "filler", so a fallback bind to one of them still checks out.
    infra->trader().export_offer("Compute", filler_ref,
                                 {{"LoadAvg", Value(55.0 + i % 45)},
                                  {"LoadAvgIncreasing", Value("yes")},
                                  {"Host", Value("filler")}});
  }
  std::vector<orb::OrbPtr> client_orbs;
  std::vector<core::SmartProxyPtr> proxies;
  for (int p = 0; p < kProxies; ++p) {
    core::SmartProxyConfig cfg;
    cfg.service_type = "Compute";
    cfg.constraint = "LoadAvg < 50 and LoadAvgIncreasing == 'no'";
    cfg.preference = "min LoadAvg";
    client_orbs.push_back(infra->make_orb("client-" + std::to_string(p)));
    auto proxy = infra->make_proxy(cfg, client_orbs.back());
    proxy->add_interest("LoadIncrease", kPredicate);
    proxy->eval_strategy_script(kStrategy);
    if (!proxy->select()) throw std::runtime_error("adapt_churn: first bind failed");
    proxies.push_back(std::move(proxy));
  }
  const uint64_t setup_end = now_ns();

  const auto bound_host = [&](const core::SmartProxy& proxy) {
    const auto offer = proxy.current_offer();
    if (!offer) return std::string();
    const auto it = offer->properties.find("Host");
    return it == offer->properties.end() ? std::string() : it->second.as_string();
  };
  const auto total_updates = [&] {
    uint64_t n = 0;
    for (const auto& mon : monitors) n += mon->update_count();
    return n;
  };

  Counts counts;
  uint64_t trail = 0xCBF29CE484222325ULL;  // where and when each adaptation landed
  std::map<std::string, int> spiked_at;  // host -> round of its live spike
  std::vector<double> call_us, adapt_us, episode_us, tick_us, export_us, withdraw_us;
  uint64_t good = 0, failed = 0;
  const Snapshot before = snapshot(*infra);
  const uint64_t updates_before = total_updates();
  const uint64_t window_start = now_ns();
  for (int r = 0; r < kRounds; ++r) {
    const Round& round = schedule[static_cast<size_t>(r)];
    for (auto it = spiked_at.begin(); it != spiked_at.end();) {
      if (r - it->second >= kReliefRounds) {
        infra->host(it->first)->set_background_jobs(0);
        it = spiked_at.erase(it);
      } else {
        ++it;
      }
    }
    for (int p = 0; p < kProxies; ++p) {
      if (!round.spike[static_cast<size_t>(p)]) continue;
      const std::string host = bound_host(*proxies[static_cast<size_t>(p)]);
      if (host.empty() || host == "filler" || spiked_at.count(host) != 0) continue;
      infra->host(host)->set_background_jobs(kSpikeJobs);
      spiked_at[host] = r;
    }
    if (round.restart >= 0) {
      std::string& offer = offers[static_cast<size_t>(round.restart)];
      const trading::ServiceOffer old = infra->trader().describe(offer);
      const uint64_t t0 = now_ns();
      infra->trader().withdraw(offer);
      const uint64_t t1 = now_ns();
      offer = infra->trader().export_offer(old.service_type, old.provider, old.properties);
      const uint64_t t2 = now_ns();
      withdraw_us.push_back(us_between(t0, t1));
      export_us.push_back(us_between(t1, t2));
      ++counts.restarts;
    }
    for (int step = 0; step < kStepsPerRound; ++step) {
      const uint64_t updates_pre = total_updates();
      const uint64_t tick_start = now_ns();
      infra->run_for(kStepS);
      const uint64_t tick_end = now_ns();
      const uint64_t ticked = total_updates() - updates_pre;
      if (ticked > 0) tick_us.push_back(us_between(tick_start, tick_end) / ticked);

      for (int p = 0; p < kProxies; ++p) {
        core::SmartProxy& proxy = *proxies[static_cast<size_t>(p)];
        const bool adapting = proxy.pending_events() > 0;
        bool ok = false;
        Value reply;
        const uint64_t t0 = now_ns();
        try {
          if (traced) {
            obs::ScopedSpan span(adapting ? "bench.adapt" : "bench.call");
            if (adapting) {
              proxy.handle_pending_events();
              episode_us.push_back(us_between(t0, now_ns()));
            }
            reply = proxy.invoke("work");
          } else {
            reply = proxy.invoke("work");
          }
          // The reply must come from the host the proxy is bound to after
          // the call (an adapting call rebinds before it forwards).
          ok = reply.is_string() && reply.as_string() == bound_host(proxy);
          if (!ok) result.fail("adapt_churn: reply did not come from the bound host");
        } catch (const std::exception& e) {
          result.fail(std::string("adapt_churn: call threw: ") + e.what());
        }
        const uint64_t t1 = now_ns();
        call_us.push_back(us_between(t0, t1));
        ++counts.calls;
        if (ok && t1 - t0 <= static_cast<uint64_t>(kDeadlineS * 1e9)) {
          ++good;
        } else {
          ++failed;
        }
        if (adapting) {
          ++counts.adapts;
          adapt_us.push_back(us_between(t0, t1));
          const std::string host = bound_host(proxy);
          trail = fnv1a(trail, std::to_string(r) + "/" + std::to_string(step) + "/" +
                                   std::to_string(p) + "/" + host);
          if (spiked_at.count(host) != 0) {
            result.fail("adapt_churn: proxy " + std::to_string(p) +
                        " still bound to spiked host " + host + " after adapting");
          }
        }
      }
    }
  }
  const uint64_t window_end = now_ns();
  const Snapshot after = snapshot(*infra);
  counts.updates = total_updates() - updates_before;
  counts.events = after.events - before.events;
  counts.rebinds = after.rebinds - before.rebinds;
  counts.lint = after.lint - before.lint;
  counts.lint_hits = after.lint_hits - before.lint_hits;
  counts.queries = after.queries - before.queries;
  counts.evaldp = after.evaldp - before.evaldp;
  counts.aspect_evals = after.aspect_evals - before.aspect_evals;
  counts.predicate_evals = after.predicate_evals - before.predicate_evals;
  counts.notifications = after.notifications - before.notifications;
  uint64_t checksum = trail;
  for (int p = 0; p < kProxies; ++p) {
    checksum = fnv1a(checksum, "proxy" + std::to_string(p));
    for (const std::string& provider : proxies[static_cast<size_t>(p)]->binding_history()) {
      checksum = fnv1a(checksum, host_of_provider[provider]);
    }
  }
  counts.checksum = checksum;

  proxies.clear();
  for (const auto& client : client_orbs) client->shutdown();
  filler_orb->shutdown();
  infra->shutdown();
  infra.reset();
  check_resources(baseline, "adapt_churn segment teardown", result);

  if (measured) {
    pass.e2e.setup_s.push_back(static_cast<double>(setup_end - setup_start) / 1e9);
    pass.e2e.call_us.insert(pass.e2e.call_us.end(), call_us.begin(), call_us.end());
    pass.e2e.adapt_us.insert(pass.e2e.adapt_us.end(), adapt_us.begin(), adapt_us.end());
    pass.episode_us.insert(pass.episode_us.end(), episode_us.begin(), episode_us.end());
    pass.tick_us.insert(pass.tick_us.end(), tick_us.begin(), tick_us.end());
    pass.export_us.insert(pass.export_us.end(), export_us.begin(), export_us.end());
    pass.withdraw_us.insert(pass.withdraw_us.end(), withdraw_us.begin(), withdraw_us.end());
    pass.e2e.attempted += counts.calls;
    pass.e2e.good += good;
    pass.e2e.failed += failed;
    pass.spans += after.spans - before.spans;
    pass.e2e.window_s += static_cast<double>(window_end - window_start) / 1e9;
  }
  return counts;
}

/// Plays whole cycles of the seed's kVariants schedules until `seconds` of
/// window time have been measured. The first cycle (a cold warm-up, not
/// measured) fixes the reference counts; every later segment must repeat
/// its variant's counts exactly.
Pass run_pass(uint64_t seed, double seconds, bool traced, std::vector<Counts>& reference,
              RunResult& result) {
  Pass pass;
  const bool first_pass = reference.empty();
  for (int v = 0; v < kVariants; ++v) {
    const Counts counts =
        run_segment(make_schedule(seed, v), traced, /*measured=*/false, pass, result);
    if (first_pass) {
      reference.push_back(counts);
    } else if (!(counts == reference[static_cast<size_t>(v)])) {
      result.fail("adapt_churn determinism: variant " + std::to_string(v) + " counts " +
                  counts.str() + " differ from " + reference[static_cast<size_t>(v)].str());
    }
  }
  const uint64_t start = now_ns();
  while (static_cast<double>(now_ns() - start) / 1e9 < seconds) {
    for (int v = 0; v < kVariants; ++v) {
      const Counts counts =
          run_segment(make_schedule(seed, v), traced, /*measured=*/true, pass, result);
      if (!(counts == reference[static_cast<size_t>(v)])) {
        result.fail("adapt_churn determinism: variant " + std::to_string(v) + " counts " +
                    counts.str() + " differ from " + reference[static_cast<size_t>(v)].str());
      }
    }
  }
  return pass;
}

double per(uint64_t n, uint64_t d) {
  return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
}

}  // namespace

RunResult run_adapt_churn(const Options& options) {
  RunResult result;
  std::vector<Counts> reference;  // per schedule variant

  const Pass plain = run_pass(options.seed, options.trace ? options.seconds / 2 : options.seconds,
                              /*traced=*/false, reference, result);
  Counts c;  // one cycle's counts: a function of the seed alone
  for (const Counts& v : reference) c += v;
  // Determinism self-test, other half: another seed's cycle must bind
  // differently.
  Pass scratch;
  Counts other;
  for (int v = 0; v < kVariants; ++v) {
    other += run_segment(make_schedule(options.seed ^ 0x5DEECE66DULL, v), /*traced=*/false,
                         /*measured=*/false, scratch, result);
  }
  if (other.checksum == c.checksum) {
    result.fail("adapt_churn determinism: another seed gave the same binding checksum");
  }
  std::cout << "# adapt_churn counts per cycle of " << kVariants << " schedules: " << c.str()
            << '\n';

  if (!options.trace) {
    report_end_to_end(plain.e2e, result);
    return result;
  }

  SpanCollector collector;
  collector.attach();
  const Pass traced =
      run_pass(options.seed, options.seconds / 2, /*traced=*/true, reference, result);
  collector.detach();
  if (!options.trace_out.empty() && !collector.write_jsonl(options.trace_out)) {
    result.fail("could not write " + options.trace_out);
  }
  result.attempted = plain.e2e.attempted + traced.e2e.attempted;
  result.failed = plain.e2e.failed + traced.e2e.failed;

  const double untraced_adapt_p50 = median(plain.e2e.adapt_us);
  result.set("core.invoke_self_us", median(collector.samples("core.invoke_self")), "us");
  result.set("core.adapt_episode_us", median(traced.episode_us), "us");
  result.set("core.events_per_adapt", per(c.events, c.adapts), "count");
  result.set("core.rebind_us", median(collector.samples("core.rebind")), "us");
  result.set("script.strategy_self_us", median(collector.samples("script.strategy_self")), "us");
  result.set("script.lint_per_adapt", per(c.lint, c.adapts), "count");
  result.set("script.lint_cache_hit_ratio", per(c.lint_hits, c.lint), "1");
  result.set("trading.query_us", median(collector.samples("trading.query")), "us");
  result.set("trading.query_self_us", median(collector.samples("trading.query_self")), "us");
  result.set("trading.evaldp_per_query", per(c.evaldp, c.queries), "count");
  result.set("trading.export_us", median(plain.export_us), "us");
  result.set("trading.withdraw_us", median(plain.withdraw_us), "us");
  result.set("monitor.tick_us", median(plain.tick_us), "us");
  result.set("monitor.aspect_evals_per_tick", per(c.aspect_evals, c.updates), "count");
  result.set("monitor.predicate_evals_per_tick", per(c.predicate_evals, c.updates), "count");
  result.set("monitor.notifications_per_adapt", per(c.notifications, c.adapts), "count");
  result.set("monitor.evaldp_us", median(collector.samples("monitor.evaldp")), "us");
  result.set("orb.evaldp_gap_us", median(collector.samples("orb.evaldp_gap")), "us");
  result.set("orb.client_self_us", median(collector.samples("orb.client_self")), "us");
  result.set("orb.server_self_us", median(collector.samples("orb.server_self")), "us");
  result.set("obs.spans_per_call", per(plain.spans, plain.e2e.attempted), "count");
  result.set("obs.tracing_overhead_pct",
             100.0 * (median(collector.root_durations("bench.adapt")) - untraced_adapt_p50) /
                 untraced_adapt_p50,
             "%");
  std::string breakdown;
  const double ratio =
      layer_sum_ratio(collector.roots("bench.adapt"), untraced_adapt_p50, &breakdown);
  result.set("obs.layer_sum_ratio", ratio, "1");
  std::cout << "# layer sum (adapt_churn, per adapting call): " << breakdown << '\n';
  if (std::abs(ratio - 1.0) > kLayerSumTolerance) {
    result.fail("adapt_churn layer-sum check: ratio " + std::to_string(ratio) +
                " outside 1 +- " + std::to_string(kLayerSumTolerance));
  }
  return result;
}

}  // namespace perfbench
