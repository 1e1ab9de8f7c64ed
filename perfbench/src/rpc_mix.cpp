// rpc_mix — the per-call floor.
//
// Two client threads, each with its own sticky SmartProxy on its own client
// ORB, call one echo servant over loopback TCP. The server is a reactor-
// served ORB with a capped worker count. After the first bind the timed
// window has no events, no trader traffic, no Luma and no lb, so it moves
// with orb (wire, pool, reactor), core's invoke fast path and obs's default
// spans, and must not move with trading or script.
//
// The run is cut into segments. Each segment builds a fresh deployment
// (timed: one setup_s sample), runs the closed loop for its share of the
// window, fires a few adaptation probes after the window, tears everything
// down and checks that fds and threads are back where they started. A cold
// warm-up segment runs first and is not measured.
#include <cmath>
#include <iostream>

#include "common.h"
#include "core/infrastructure.h"
#include "orb/wire.h"

namespace perfbench {

namespace {

using namespace adapt;

constexpr int kClients = 2;
constexpr size_t kPayloads = 512;     // per client, cycled through
constexpr double kDeadlineS = 0.05;   // a call slower than this is not goodput
constexpr int kProbesPerProxy = 10;   // adaptation probes per proxy and segment
constexpr size_t kEchoWorkers = 2;    // reactor worker cap of the echo server

/// The seeded payload mix: ~70% scalars, ~25% offer-property tables, ~5%
/// 4 KiB strings.
std::vector<Value> make_payloads(Rng& rng) {
  std::vector<Value> out;
  out.reserve(kPayloads);
  for (size_t i = 0; i < kPayloads; ++i) {
    const double kind = rng.uniform();
    if (kind < 0.70) {
      switch (rng.below(3)) {
        case 0: out.emplace_back(static_cast<double>(rng.below(1u << 20)) / 7.0); break;
        case 1: out.emplace_back("key-" + std::to_string(rng.below(100000))); break;
        default: out.emplace_back(rng.below(2) == 0); break;
      }
    } else if (kind < 0.95) {
      auto props = Table::make();
      props->set(Value("LoadAvg"), Value(static_cast<double>(rng.below(10000)) / 100.0));
      props->set(Value("LoadAvgIncreasing"), Value(rng.below(2) == 0 ? "yes" : "no"));
      props->set(Value("Host"), Value("host-" + std::to_string(rng.below(64))));
      props->set(Value("Cpus"), Value(static_cast<double>(1 + rng.below(32))));
      props->set(Value("Tags"), Value(Table::make_array({Value("gpu"), Value("ssd")})));
      out.emplace_back(props);
    } else {
      std::string blob(4096, ' ');
      for (char& c : blob) c = static_cast<char>('a' + rng.below(26));
      out.emplace_back(std::move(blob));
    }
  }
  return out;
}

struct Pass {
  EndToEnd e2e;
  std::vector<double> episode_us, export_us, withdraw_us, codec_us;
  uint64_t bytes = 0, conns_opened = 0, conns_reused = 0, frames = 0, spans = 0;
};

/// One segment: build, measure for `window_s`, probe, tear down.
void run_segment(const std::vector<std::vector<Value>>& payloads, double window_s,
                 bool traced, bool measured, Pass& pass, RunResult& result) {
  const Resources baseline = read_resources();
  const uint64_t setup_start = now_ns();
  auto infra = std::make_unique<core::Infrastructure>(
      core::InfrastructureOptions{.simulated_time = true, .name = "rpc"});
  infra->trader().types().add(trading::ServiceTypeDef{.name = "Echo"});
  auto server = orb::Orb::create(orb::OrbConfig{
      .name = "rpc/echo", .listen_tcp = true, .reactor_workers = kEchoWorkers});
  auto servant = orb::FunctionServant::make("Echo");
  servant->on("echo", [](const ValueList& args) { return args.at(0); });
  const ObjectRef echo_ref = server->register_servant(servant);
  const uint64_t export_start = now_ns();
  const std::string offer = infra->trader().export_offer("Echo", echo_ref, {});
  const uint64_t export_end = now_ns();

  std::vector<orb::OrbPtr> client_orbs;
  std::vector<core::SmartProxyPtr> proxies;
  for (int c = 0; c < kClients; ++c) {
    // The traced pass propagates trace context over TCP so server spans
    // join the client's trace; the untraced pass keeps the default (v1)
    // wire, exactly what a user runs.
    client_orbs.push_back(orb::Orb::create(orb::OrbConfig{
        .name = "rpc/client-" + std::to_string(c), .propagate_wire_context = traced}));
    core::SmartProxyConfig cfg;
    cfg.service_type = "Echo";
    auto proxy = infra->make_proxy(cfg, client_orbs.back());
    install_reselect_strategy(*proxy);
    if (!proxy->select()) throw std::runtime_error("rpc_mix: first bind found no echo offer");
    proxies.push_back(std::move(proxy));
  }
  const uint64_t setup_end = now_ns();

  for (const auto& client : client_orbs) client->stats_reset();
  const uint64_t frames_before = counter_value("orb.reactor.frames");
  const uint64_t spans_before = obs::default_tracer().recorded();
  LoopStats loop = closed_loop(kClients, window_s, kDeadlineS, traced,
                               [&](int t, uint64_t seq) {
                                 const Value& request = payloads[t][seq % kPayloads];
                                 return deep_equal(
                                     proxies[static_cast<size_t>(t)]->invoke("echo", {request}),
                                     request);
                               });
  const uint64_t spans_after = obs::default_tracer().recorded();
  const uint64_t frames_after = counter_value("orb.reactor.frames");
  uint64_t bytes = 0, opened = 0, reused = 0;
  for (const auto& client : client_orbs) {
    const orb::OrbStats stats = client->stats();
    bytes += stats.bytes_sent + stats.bytes_received;
    opened += stats.connections_opened;
    reused += stats.connections_reused;
  }

  std::vector<double> adapt_us, episode_us;
  for (const auto& proxy : proxies) {
    const Value probe(42.0);
    adaptation_probes(*proxy, kProbesPerProxy, traced,
                      [&] { return deep_equal(proxy->invoke("echo", {probe}), probe); },
                      adapt_us, episode_us, result);
  }

  std::vector<double> codec_us;
  for (const Value& payload : payloads[0]) {
    const uint64_t t0 = now_ns();
    ByteWriter writer;
    orb::encode_value(writer, payload);
    ByteReader reader(writer.bytes());
    const Value decoded = orb::decode_value(reader);
    codec_us.push_back(us_between(t0, now_ns()));
    if (!deep_equal(decoded, payload)) result.fail("rpc_mix: codec round trip changed a payload");
  }

  proxies.clear();
  for (const auto& client : client_orbs) client->shutdown();
  client_orbs.clear();
  const uint64_t withdraw_start = now_ns();
  infra->trader().withdraw(offer);
  const uint64_t withdraw_end = now_ns();
  server->shutdown();
  server.reset();
  servant.reset();
  infra->shutdown();
  infra.reset();
  check_resources(baseline, "rpc_mix segment teardown", result);

  if (!measured) return;
  pass.e2e.setup_s.push_back(static_cast<double>(setup_end - setup_start) / 1e9);
  pass.e2e.call_us.insert(pass.e2e.call_us.end(), loop.latency_us.begin(),
                          loop.latency_us.end());
  pass.e2e.adapt_us.insert(pass.e2e.adapt_us.end(), adapt_us.begin(), adapt_us.end());
  pass.episode_us.insert(pass.episode_us.end(), episode_us.begin(), episode_us.end());
  pass.codec_us.insert(pass.codec_us.end(), codec_us.begin(), codec_us.end());
  pass.export_us.push_back(us_between(export_start, export_end));
  pass.withdraw_us.push_back(us_between(withdraw_start, withdraw_end));
  pass.e2e.attempted += loop.attempted;
  pass.e2e.failed += loop.failed;
  pass.e2e.good += loop.good;
  pass.e2e.window_s += loop.wall_s;
  pass.bytes += bytes;
  pass.conns_opened += opened;
  pass.conns_reused += reused;
  pass.frames += frames_after - frames_before;
  pass.spans += spans_after - spans_before;
}

Pass run_pass(const std::vector<std::vector<Value>>& payloads, double seconds, bool traced,
              RunResult& result) {
  Pass pass;
  // Cold warm-up: first-touch allocation, lazy statics, page faults.
  run_segment(payloads, 0.25, traced, /*measured=*/false, pass, result);
  const int segments = std::max(2, static_cast<int>(std::lround(seconds)));
  for (int s = 0; s < segments; ++s) {
    run_segment(payloads, seconds / segments, traced, /*measured=*/true, pass, result);
  }
  return pass;
}

}  // namespace

RunResult run_rpc_mix(const Options& options) {
  RunResult result;
  Rng rng(options.seed);
  std::vector<std::vector<Value>> payloads;
  for (int c = 0; c < kClients; ++c) payloads.push_back(make_payloads(rng));

  if (!options.trace) {
    const Pass pass = run_pass(payloads, options.seconds, /*traced=*/false, result);
    report_end_to_end(pass.e2e, result);
    return result;
  }

  // Traced run: an untraced pass for the reference numbers, then the same
  // workload with the span collector attached.
  const Pass plain = run_pass(payloads, options.seconds / 2, /*traced=*/false, result);
  SpanCollector collector;
  collector.attach();
  const Pass traced = run_pass(payloads, options.seconds / 2, /*traced=*/true, result);
  collector.detach();
  if (!options.trace_out.empty() && !collector.write_jsonl(options.trace_out)) {
    result.fail("could not write " + options.trace_out);
  }
  result.attempted = plain.e2e.attempted + traced.e2e.attempted;
  result.failed = plain.e2e.failed + traced.e2e.failed;

  const double calls = static_cast<double>(std::max<uint64_t>(plain.e2e.attempted, 1));
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
  result.set("orb.codec_us", median(plain.codec_us), "us");
  result.set("orb.bytes_per_call", static_cast<double>(plain.bytes) / calls, "B");
  const uint64_t checkouts = std::max<uint64_t>(plain.conns_reused + plain.conns_opened, 1);
  result.set("orb.conn_reuse_ratio",
             static_cast<double>(plain.conns_reused) / static_cast<double>(checkouts), "1");
  result.set("orb.reactor_frames_per_call", static_cast<double>(plain.frames) / calls, "count");
  result.set("obs.spans_per_call", static_cast<double>(plain.spans) / calls, "count");
  const double traced_p50 = percentile(traced.e2e.call_us, 0.5);
  result.set("obs.tracing_overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%");
  std::string breakdown;
  const double ratio = layer_sum_ratio(collector.roots("bench.call"), untraced_p50, &breakdown);
  result.set("obs.layer_sum_ratio", ratio, "1");
  std::cout << "# layer sum (rpc_mix, per call): " << breakdown << '\n';
  if (std::abs(ratio - 1.0) > kLayerSumTolerance) {
    result.fail("rpc_mix layer-sum check: ratio " + std::to_string(ratio) + " outside 1 +- " +
                std::to_string(kLayerSumTolerance));
  }
  return result;
}

}  // namespace perfbench
