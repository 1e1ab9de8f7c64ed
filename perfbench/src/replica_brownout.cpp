// replica_brownout — balancing, hedging and admission around a degraded
// replica.
//
// Three client threads drive p2c smart proxies with hedging; every call has
// a deadline (the client ORB's request budget, propagated on the wire). The
// proxies balance over four TCP replica ORBs behind admission control
// (max_in_flight_dispatches). Service time is a sleep, so capacity is exact
// even on a shared box: three replicas are healthy, one is degraded.
// About 80% of calls are idempotent reads, which may be hedged or retried;
// about 20% are non-idempotent writes, which are never hedged and never
// retried after sending. lb steering, orb admission, deadlines and retry
// budgets decide the outcome; CPU-cost gains elsewhere should not move it.
//
// Each segment builds the deployment (one setup_s sample), runs the closed
// loop, checks that every write executed at most once (the servants count
// executions against the writes issued), fires adaptation probes, tears
// down and checks fds and threads.
#include <cmath>
#include <iostream>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "core/infrastructure.h"

namespace perfbench {

namespace {

using namespace adapt;

constexpr int kClients = 3;
constexpr int kReplicas = 4;
constexpr int kDegraded = kReplicas - 1;  // index of the degraded replica
constexpr double kHealthyServiceS = 0.005;
// A healthy replica browns out too: a seeded 3% of its reads miss its cache
// and take 30 ms. Each is hedged at 10 ms and finishes near 15 ms on another
// replica, so about 2.4% of all calls form a hedged-read mode, and
// call_p99_us sits inside it: the tail is shaped by hedging and by how well
// p2c keeps traffic off the degraded replica, not by the box's stalls.
constexpr double kSlowReadShare = 0.03;
constexpr double kSlowReadS = 0.030;
constexpr double kDegradedServiceS = 0.040;
constexpr double kHedgeDelayS = 0.010;
constexpr double kReadShare = 0.8;
// Dispatches each replica admits at once (and its reactor workers): enough
// for the three clients, so a healthy replica never queues and the tail is
// left to lb steering and hedging.
constexpr size_t kAdmitted = 3;
constexpr double kDeadlineS = 0.25;
constexpr size_t kOpsPerClient = 4096;  // seeded op sequence, cycled through
constexpr int kProbesPerProxy = 10;

struct Op {
  bool write = false;
  int key = 0;
};

/// Executions of each write id, counted by the servants.
struct WriteLedger {
  std::mutex mu;
  std::unordered_map<std::string, int> executions;
};

struct Pass {
  EndToEnd e2e;
  std::vector<double> episode_us, export_us, withdraw_us;
  uint64_t retries = 0, overloads = 0, timeouts = 0, shed = 0, expired = 0;
  uint64_t hedges = 0, hedge_wins = 0, breaker_opens = 0;
  uint64_t servant_calls = 0, degraded_calls = 0, spans = 0;
  uint64_t wait_count = 0, wait_sum_ns = 0;
};

std::string replica_name(int r) { return "brown/r" + std::to_string(r); }

void run_segment(const std::vector<std::vector<Op>>& ops, uint64_t seed, int segment,
                 double window_s, bool traced, bool measured, Pass& pass, RunResult& result) {
  const Resources baseline = read_resources();
  auto ledger = std::make_shared<WriteLedger>();
  std::array<std::atomic<uint64_t>, kReplicas> served{};

  const uint64_t setup_start = now_ns();
  auto infra = std::make_unique<core::Infrastructure>(
      core::InfrastructureOptions{.simulated_time = true, .name = "brown"});
  infra->trader().types().add(trading::ServiceTypeDef{.name = "Store"});
  std::vector<orb::OrbPtr> replicas;
  std::vector<std::string> offers;
  std::vector<double> export_us;
  for (int r = 0; r < kReplicas; ++r) {
    replicas.push_back(orb::Orb::create(orb::OrbConfig{.name = replica_name(r),
                                                       .listen_tcp = true,
                                                       .max_in_flight_dispatches = kAdmitted,
                                                       .reactor_workers = kAdmitted}));
    auto servant = orb::FunctionServant::make("Store");
    std::atomic<uint64_t>* count = &served[static_cast<size_t>(r)];
    // Whether the n-th call a replica serves misses is a hash of (seed,
    // replica, n): the share is exact, whichever client's call it lands on.
    const auto serve = [count, degraded = r == kDegraded,
                        salt = seed * 31 + static_cast<uint64_t>(r)](bool read) {
      const uint64_t n = count->fetch_add(1, std::memory_order_relaxed);
      double service_s = kHealthyServiceS;
      if (degraded) {
        service_s = kDegradedServiceS;
      } else if (read && Rng(salt * 0x9E3779B97F4A7C15ULL + n).uniform() < kSlowReadShare) {
        service_s = kSlowReadS;
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(service_s));
    };
    servant->on("read", [serve](const ValueList& args) {
      serve(/*read=*/true);
      return Value("v:" + std::to_string(args.at(0).as_int()));
    });
    servant->on("write", [serve, ledger](const ValueList& args) {
      serve(/*read=*/false);
      std::scoped_lock lock(ledger->mu);
      ++ledger->executions[args.at(0).as_string()];
      return args.at(0);
    });
    const ObjectRef ref = replicas.back()->register_servant(servant);
    const uint64_t t0 = now_ns();
    offers.push_back(infra->trader().export_offer("Store", ref, {}));
    export_us.push_back(us_between(t0, now_ns()));
  }
  std::vector<orb::OrbPtr> client_orbs;
  std::vector<core::SmartProxyPtr> proxies;
  for (int c = 0; c < kClients; ++c) {
    orb::OrbConfig orb_cfg;
    orb_cfg.name = "brown/client-" + std::to_string(c);
    orb_cfg.request_timeout = kDeadlineS;
    orb_cfg.idempotent_operations.insert("read");
    // Deadlines ride the context tail, so admission can expire requests
    // whose caller already gave up.
    orb_cfg.propagate_wire_context = true;
    client_orbs.push_back(orb::Orb::create(orb_cfg));
    core::SmartProxyConfig cfg;
    cfg.service_type = "Store";
    cfg.lb_policy = "p2c";
    cfg.lb.hedge.enabled = true;
    // A fixed budget of twice a healthy call, a quarter of a degraded one:
    // hedges fire on picks that landed on the slow replica or stalled.
    cfg.lb.hedge.min_delay = kHedgeDelayS;
    cfg.lb.hedge.max_delay = kHedgeDelayS;
    auto proxy = infra->make_proxy(cfg, client_orbs.back());
    install_reselect_strategy(*proxy);
    if (!proxy->select()) throw std::runtime_error("replica_brownout: first bind failed");
    proxy->replica_set(/*ensure=*/true)->refresh(/*force=*/true);
    proxies.push_back(std::move(proxy));
  }
  const uint64_t setup_end = now_ns();

  for (const auto& orb : client_orbs) orb->stats_reset();
  for (const auto& orb : replicas) orb->stats_reset();
  std::vector<obs::Histogram::Snapshot> waits_before;
  for (int r = 0; r < kReplicas; ++r) {
    waits_before.push_back(
        obs::metrics().histogram("orb." + replica_name(r) + ".admission.queue_ns").snapshot());
  }
  const uint64_t hedges_before = counter_value("lb.hedge.fired");
  const uint64_t wins_before = counter_value("lb.hedge.won");
  const uint64_t opens_before = counter_value("lb.breaker.open");
  const uint64_t spans_before = obs::default_tracer().recorded();

  // Write ids issued per client, with whether the call returned success.
  std::vector<std::vector<std::pair<std::string, bool>>> writes(kClients);
  LoopStats loop = closed_loop(kClients, window_s, kDeadlineS, traced, [&](int t, uint64_t seq) {
    const Op& op = ops[static_cast<size_t>(t)][seq % kOpsPerClient];
    core::SmartProxy& proxy = *proxies[static_cast<size_t>(t)];
    if (!op.write) {
      const Value reply = proxy.invoke("read", {Value(op.key)});
      return reply.is_string() && reply.as_string() == "v:" + std::to_string(op.key);
    }
    auto& issued = writes[static_cast<size_t>(t)];
    issued.emplace_back("w" + std::to_string(segment) + "-" + std::to_string(t) + "-" +
                            std::to_string(seq),
                        false);
    const Value reply = proxy.invoke("write", {Value(issued.back().first)});
    issued.back().second = reply.is_string() && reply.as_string() == issued.back().first;
    return issued.back().second;
  });

  uint64_t retries = 0, overloads = 0, timeouts = 0, shed = 0, expired = 0;
  for (const auto& orb : client_orbs) {
    const orb::OrbStats stats = orb->stats();
    retries += stats.retries;
    overloads += stats.overloads;
    timeouts += stats.timeouts;
  }
  for (const auto& orb : replicas) {
    const orb::OrbStats stats = orb->stats();
    shed += stats.requests_shed;
    expired += stats.requests_expired;
  }
  uint64_t wait_count = 0, wait_sum = 0;
  for (int r = 0; r < kReplicas; ++r) {
    const auto now =
        obs::metrics().histogram("orb." + replica_name(r) + ".admission.queue_ns").snapshot();
    wait_count += now.count - waits_before[static_cast<size_t>(r)].count;
    wait_sum += now.sum - waits_before[static_cast<size_t>(r)].sum;
  }
  const uint64_t hedges = counter_value("lb.hedge.fired") - hedges_before;
  const uint64_t wins = counter_value("lb.hedge.won") - wins_before;
  const uint64_t opens = counter_value("lb.breaker.open") - opens_before;
  const uint64_t spans = obs::default_tracer().recorded() - spans_before;
  uint64_t servant_calls = 0;
  for (const auto& count : served) servant_calls += count.load();
  const uint64_t degraded_calls = served[kDegraded].load();

  // At-most-once: no write id executed twice, every acknowledged write
  // executed exactly once, and nothing executed that was never issued.
  {
    std::scoped_lock lock(ledger->mu);
    size_t issued_total = 0;
    for (const auto& issued : writes) {
      issued_total += issued.size();
      for (const auto& [id, acked] : issued) {
        const auto it = ledger->executions.find(id);
        const int n = it == ledger->executions.end() ? 0 : it->second;
        if (n > 1) result.fail("replica_brownout: write " + id + " executed " +
                               std::to_string(n) + " times");
        if (acked && n != 1) result.fail("replica_brownout: acknowledged write " + id +
                                         " executed " + std::to_string(n) + " times");
      }
    }
    if (ledger->executions.size() > issued_total) {
      result.fail("replica_brownout: servants executed writes that were never issued");
    }
  }

  std::vector<double> adapt_us, episode_us;
  for (const auto& proxy : proxies) {
    adaptation_probes(*proxy, kProbesPerProxy, traced,
                      [&] {
                        const Value reply = proxy->invoke("read", {Value(7)});
                        return reply.is_string() && reply.as_string() == "v:7";
                      },
                      adapt_us, episode_us, result);
  }

  proxies.clear();
  for (const auto& orb : client_orbs) orb->shutdown();
  client_orbs.clear();
  std::vector<double> withdraw_us;
  for (const std::string& offer : offers) {
    const uint64_t t0 = now_ns();
    infra->trader().withdraw(offer);
    withdraw_us.push_back(us_between(t0, now_ns()));
  }
  for (const auto& orb : replicas) orb->shutdown();
  replicas.clear();
  infra->shutdown();
  infra.reset();
  check_resources(baseline, "replica_brownout segment teardown", result);

  if (!measured) return;
  pass.e2e.setup_s.push_back(static_cast<double>(setup_end - setup_start) / 1e9);
  pass.e2e.call_us.insert(pass.e2e.call_us.end(), loop.latency_us.begin(),
                          loop.latency_us.end());
  pass.e2e.adapt_us.insert(pass.e2e.adapt_us.end(), adapt_us.begin(), adapt_us.end());
  pass.episode_us.insert(pass.episode_us.end(), episode_us.begin(), episode_us.end());
  pass.export_us.insert(pass.export_us.end(), export_us.begin(), export_us.end());
  pass.withdraw_us.insert(pass.withdraw_us.end(), withdraw_us.begin(), withdraw_us.end());
  pass.e2e.attempted += loop.attempted;
  pass.e2e.failed += loop.failed;
  pass.e2e.good += loop.good;
  pass.e2e.window_s += loop.wall_s;
  pass.retries += retries;
  pass.overloads += overloads;
  pass.timeouts += timeouts;
  pass.shed += shed;
  pass.expired += expired;
  pass.hedges += hedges;
  pass.hedge_wins += wins;
  pass.breaker_opens += opens;
  pass.servant_calls += servant_calls;
  pass.degraded_calls += degraded_calls;
  pass.spans += spans;
  pass.wait_count += wait_count;
  pass.wait_sum_ns += wait_sum;
}

Pass run_pass(const std::vector<std::vector<Op>>& ops, uint64_t seed, double seconds,
              bool traced, RunResult& result) {
  Pass pass;
  run_segment(ops, seed, 0, 0.25, traced, /*measured=*/false, pass, result);
  const int segments = std::max(2, static_cast<int>(std::lround(seconds)));
  for (int s = 1; s <= segments; ++s) {
    run_segment(ops, seed, s, seconds / segments, traced, /*measured=*/true, pass, result);
  }
  return pass;
}

double per_kcall(uint64_t n, uint64_t calls) {
  return calls == 0 ? 0.0 : 1000.0 * static_cast<double>(n) / static_cast<double>(calls);
}

}  // namespace

RunResult run_replica_brownout(const Options& options) {
  RunResult result;
  Rng rng(options.seed);
  std::vector<std::vector<Op>> ops(kClients);
  for (auto& sequence : ops) {
    sequence.resize(kOpsPerClient);
    for (Op& op : sequence) {
      op.write = rng.uniform() >= kReadShare;
      op.key = static_cast<int>(rng.below(10000));
    }
  }

  if (!options.trace) {
    const Pass pass = run_pass(ops, options.seed, options.seconds, /*traced=*/false, result);
    report_end_to_end(pass.e2e, result);
    return result;
  }

  const Pass plain = run_pass(ops, options.seed, options.seconds / 2, /*traced=*/false, result);
  SpanCollector collector;
  collector.attach();
  const Pass traced = run_pass(ops, options.seed, options.seconds / 2, /*traced=*/true, result);
  collector.detach();
  if (!options.trace_out.empty() && !collector.write_jsonl(options.trace_out)) {
    result.fail("could not write " + options.trace_out);
  }
  result.attempted = plain.e2e.attempted + traced.e2e.attempted;
  result.failed = plain.e2e.failed + traced.e2e.failed;

  const uint64_t calls = plain.e2e.attempted;
  const double untraced_p50 = percentile(plain.e2e.call_us, 0.5);
  result.set("core.invoke_self_us", median(collector.samples("core.invoke_self")), "us");
  result.set("core.adapt_episode_us", median(traced.episode_us), "us");
  result.set("core.rebind_us", median(collector.samples("core.rebind")), "us");
  result.set("trading.query_us", median(collector.samples("trading.query")), "us");
  result.set("trading.query_self_us", median(collector.samples("trading.query_self")), "us");
  result.set("trading.export_us", median(plain.export_us), "us");
  result.set("trading.withdraw_us", median(plain.withdraw_us), "us");
  result.set("orb.client_self_us", median(collector.samples("orb.client_self")), "us");
  result.set("orb.server_self_us", median(collector.samples("orb.server_self")), "us");
  result.set("orb.retries_per_kcall", per_kcall(plain.retries, calls), "count");
  result.set("orb.overloads_per_kcall", per_kcall(plain.overloads, calls), "count");
  result.set("orb.shed_per_kcall", per_kcall(plain.shed, calls), "count");
  result.set("orb.expired_per_kcall", per_kcall(plain.expired, calls), "count");
  result.set("orb.timeouts_per_kcall", per_kcall(plain.timeouts, calls), "count");
  result.set("orb.admission_wait_us",
             plain.wait_count == 0 ? 0.0
                                   : static_cast<double>(plain.wait_sum_ns) / 1e3 /
                                         static_cast<double>(plain.wait_count),
             "us");
  result.set("lb.degraded_share",
             plain.servant_calls == 0 ? 0.0
                                      : static_cast<double>(plain.degraded_calls) /
                                            static_cast<double>(plain.servant_calls),
             "1");
  result.set("lb.hedge_per_kcall", per_kcall(plain.hedges, calls), "count");
  result.set("lb.hedge_win_ratio",
             plain.hedges == 0 ? 0.0
                               : static_cast<double>(plain.hedge_wins) /
                                     static_cast<double>(plain.hedges),
             "1");
  result.set("lb.breaker_opens", static_cast<double>(plain.breaker_opens), "count");
  result.set("obs.spans_per_call",
             calls == 0 ? 0.0 : static_cast<double>(plain.spans) / static_cast<double>(calls),
             "count");
  const double traced_p50 = percentile(traced.e2e.call_us, 0.5);
  result.set("obs.tracing_overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%");
  std::string breakdown;
  const double ratio = layer_sum_ratio(collector.roots("bench.call"), untraced_p50, &breakdown);
  result.set("obs.layer_sum_ratio", ratio, "1");
  std::cout << "# layer sum (replica_brownout, per call): " << breakdown << '\n';
  return result;
}

}  // namespace perfbench
