#include "orb/orb.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <random>
#include <thread>

#include "base/logging.h"

namespace adapt::orb {

namespace {

/// Monotonic wall-clock seconds. Client transport deadlines are real time
/// by nature (socket timeouts are), unlike the simulation's virtual clock.
double steady_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t steady_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// Backoff before retry number `retry_index` (0-based), with jitter.
double backoff_delay(const RetryPolicy& policy, int retry_index) {
  double delay = policy.initial_backoff;
  for (int i = 0; i < retry_index; ++i) delay *= policy.backoff_multiplier;
  delay = std::min(delay, policy.max_backoff);
  if (policy.jitter > 0.0) {
    thread_local std::minstd_rand rng{std::random_device{}()};
    std::uniform_real_distribution<double> dist(0.0, policy.jitter);
    delay *= 1.0 + dist(rng);
  }
  return delay;
}

/// Process-wide registry of live ORBs, keyed by inproc endpoint. Lets many
/// ORBs in one process (one per simulated host) reach each other without
/// TCP, with the by-value semantics of the wire (see wire_copy).
class InprocRegistry {
 public:
  static InprocRegistry& instance() {
    static InprocRegistry reg;
    return reg;
  }

  void add(const std::string& endpoint, const std::weak_ptr<Orb>& orb) {
    std::scoped_lock lock(mu_);
    if (auto existing = map_[endpoint].lock()) {
      throw Error("inproc endpoint already in use: " + endpoint);
    }
    map_[endpoint] = orb;
  }

  void remove(const std::string& endpoint) {
    std::scoped_lock lock(mu_);
    map_.erase(endpoint);
  }

  std::shared_ptr<Orb> find(const std::string& endpoint) {
    std::scoped_lock lock(mu_);
    const auto it = map_.find(endpoint);
    return it == map_.end() ? nullptr : it->second.lock();
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::weak_ptr<Orb>> map_;
};

std::atomic<uint64_t> g_orb_counter{1};

/// Builds the error payload carried in failure replies.
Value make_error_payload(const std::string& code, const std::string& message) {
  auto t = Table::make();
  t->set(Value("code"), Value(code));
  t->set(Value("message"), Value(message));
  return Value(std::move(t));
}

}  // namespace

OrbPtr Orb::create(OrbConfig config) {
  // Not make_shared: the constructor is private and the registry needs a
  // shared_ptr before any call can arrive.
  auto orb = std::shared_ptr<Orb>(new Orb(std::move(config)));
  orb->start();
  return orb;
}

Orb::Orb(OrbConfig config)
    : config_(std::move(config)),
      retry_budget_(RetryBudget::Config{.cap = config_.retry_budget_cap}) {
  name_ = config_.name.empty() ? "orb-" + std::to_string(g_orb_counter++) : config_.name;
  inproc_endpoint_ = "inproc://" + name_;
  interfaces_ = config_.interfaces ? config_.interfaces
                                   : std::make_shared<InterfaceRepository>();
  tracer_ = config_.tracer ? config_.tracer : obs::default_tracer_ptr();
  stats_ = std::make_shared<OrbStatsCounters>(&obs::metrics(), "orb." + name_ + ".");
  AdmissionConfig admission_config;
  admission_config.max_in_flight = config_.max_in_flight_dispatches;
  admission_config.max_queue = config_.admission_queue_limit;
  admission_config.codel_target = config_.codel_target;
  admission_config.codel_interval = config_.codel_interval;
  admission_config.max_queue_wait = config_.admission_max_queue_wait;
  admission_ = std::make_unique<AdmissionController>(admission_config);
  if (admission_->enabled()) {
    const std::string prefix = "orb." + name_ + ".admission.";
    admission_in_flight_gauge_ = &obs::metrics().gauge(prefix + "in_flight");
    admission_queued_gauge_ = &obs::metrics().gauge(prefix + "queued");
    admission_wait_ns_ = &obs::metrics().histogram(prefix + "queue_ns");
  }
  PoolConfig pool_config;
  pool_config.timeout = config_.request_timeout;
  pool_ = std::make_unique<TcpConnectionPool>(std::move(pool_config), stats_);
}

void Orb::start() {
  InprocRegistry::instance().add(inproc_endpoint_, weak_from_this());
  primary_endpoint_ = inproc_endpoint_;
  if (config_.listen_tcp) {
    try {
      // Raw capture, not a weak_from_this().lock(): a locked shared_ptr
      // held across a slow servant call can become the *last* owner, running
      // ~Orb on a serving thread after main() — and the static inproc
      // registry — are gone. Safe because shutdown() stops the listener,
      // joining every serving thread, before any member is torn down.
      listener_ = std::make_unique<TcpListener>(
          config_.listen_host, config_.listen_port,
          [this](const Bytes& payload) -> std::optional<Bytes> {
            return handle_payload(payload);
          },
          ReactorConfig{.workers = config_.reactor_workers});
    } catch (...) {
      InprocRegistry::instance().remove(inproc_endpoint_);
      throw;
    }
    primary_endpoint_ = listener_->endpoint();
  }
  log_debug("orb ", name_, " up at ", primary_endpoint_);
}

Orb::~Orb() { shutdown(); }

void Orb::shutdown() {
  bool expected = false;
  if (!shut_down_.compare_exchange_strong(expected, true)) return;
  InprocRegistry::instance().remove(inproc_endpoint_);
  // Close admission before stopping the listener: stop() joins reactor
  // workers, and a worker blocked in AdmissionController::acquire would
  // deadlock the join. close() sheds every waiter first.
  admission_->close();
  if (listener_) listener_->stop();
  pool_->clear();
  log_debug("orb ", name_, " shut down");
}

// ---- object adapter -----------------------------------------------------

ObjectRef Orb::register_servant(ServantPtr servant, std::string object_id) {
  if (!servant) throw OrbError("register_servant: null servant");
  if (object_id.empty()) object_id = "obj-" + std::to_string(next_object_id_++);
  {
    std::scoped_lock lock(servants_mu_);
    if (servants_.count(object_id) != 0) {
      throw OrbError("object id already registered: " + object_id);
    }
    servants_[object_id] = servant;
  }
  ObjectRef ref;
  ref.endpoint = primary_endpoint_;
  ref.object_id = std::move(object_id);
  ref.interface = servant->interface_name();
  return ref;
}

void Orb::unregister_servant(const std::string& object_id) {
  std::scoped_lock lock(servants_mu_);
  servants_.erase(object_id);
}

ServantPtr Orb::find_servant(const std::string& object_id) const {
  std::scoped_lock lock(servants_mu_);
  const auto it = servants_.find(object_id);
  return it == servants_.end() ? nullptr : it->second;
}

size_t Orb::servant_count() const {
  std::scoped_lock lock(servants_mu_);
  return servants_.size();
}

ObjectRef Orb::make_ref(const std::string& object_id) const {
  ObjectRef ref;
  ref.endpoint = primary_endpoint_;
  ref.object_id = object_id;
  if (const ServantPtr s = find_servant(object_id)) ref.interface = s->interface_name();
  return ref;
}

// ---- server side -----------------------------------------------------------

ReplyMessage Orb::dispatch_request(const RequestMessage& req) {
  stats_->add_request_served();

  // Admission control + deadline enforcement, both strictly *pre-dispatch*:
  // a rejected request is guaranteed never to have reached the servant, so
  // clients may re-issue even non-idempotent operations. The shed path is
  // deliberately lean (no span, no servant lookup) — rejecting must stay
  // orders of magnitude cheaper than executing.
  bool hold_slot = false;
  double queued_for = 0.0;  // seconds spent waiting for admission
  if (admission_->enabled()) {
    const double entry = steady_now();
    const bool critical = req.critical || is_critical(req.operation);
    const auto decision = admission_->acquire(critical, req.deadline);
    queued_for = steady_now() - entry;
    admission_wait_ns_->record(static_cast<uint64_t>(queued_for * 1e9));
    admission_in_flight_gauge_->set(static_cast<double>(admission_->in_flight()));
    admission_queued_gauge_->set(static_cast<double>(admission_->queued()));
    if (decision == AdmissionController::Decision::Shed) {
      stats_->add_request_shed();
      ReplyMessage rep;
      rep.request_id = req.request_id;
      rep.status = ReplyStatus::SystemError;
      rep.result = make_error_payload(
          "overloaded", "request shed by admission control at " + name_);
      return rep;
    }
    hold_slot = decision == AdmissionController::Decision::Admitted;
    if (decision == AdmissionController::Decision::Expired) {
      stats_->add_request_expired();
      ReplyMessage rep;
      rep.request_id = req.request_id;
      rep.status = ReplyStatus::SystemError;
      rep.result = make_error_payload(
          "deadline-exceeded",
          "deadline expired while queued for admission at " + name_);
      return rep;
    }
  }
  // Every admitted acquire must be released, on all exit paths below.
  struct SlotRelease {
    AdmissionController* a;
    ~SlotRelease() {
      if (a) a->release();
    }
  } slot_release{hold_slot ? admission_.get() : nullptr};

  // Expired on arrival (or while queued, re-checked after the wait): the
  // caller's propagated budget is already gone, so executing the servant
  // would only produce a reply nobody reads. Admission is the only wait
  // since arrival, so its clock reads are the only ones needed.
  const double dispatch_remaining = req.deadline > 0.0 ? req.deadline - queued_for : 0.0;
  if (req.deadline > 0.0 && dispatch_remaining <= 0.0) {
    stats_->add_request_expired();
    ReplyMessage rep;
    rep.request_id = req.request_id;
    rep.status = ReplyStatus::SystemError;
    rep.result = make_error_payload(
        "deadline-exceeded", "deadline expired before dispatch of '" +
                                 req.operation + "' at " + name_);
    return rep;
  }
  // Nested invokes made by the servant on this thread inherit what is left
  // of the caller's budget (see Orb::invoke_traced).
  DispatchDeadlineScope deadline_scope(dispatch_remaining);

  // Server span: adopt the caller's context — the typed one a collocated
  // caller set, or the text a TCP peer sent — so this dispatch (and anything
  // the servant invokes from this thread) joins the caller's trace; a
  // context-free request roots a fresh trace.
  obs::TraceContext remote = req.trace;
  if (!remote.valid() && !req.traceparent.empty()) {
    if (const auto parsed = obs::TraceContext::from_header(req.traceparent)) {
      remote = *parsed;
    }
  }
  obs::SpanOptions span_options;
  span_options.kind = obs::SpanKind::Server;
  span_options.remote_parent = remote.valid() ? &remote : nullptr;
  span_options.tracer = tracer_.get();
  obs::ScopedSpan span(req.operation, span_options);
  // Mirror of the client-side single-annotation rule: the serving ORB is
  // identified by the parent client span's "peer" annotation; the object id
  // is what distinguishes spans within one ORB.
  if (span.active()) span.annotate("object", req.object_id);
  // With an active span the dispatch histogram reuses the span's clock reads.
  const uint64_t started = span.active() ? 0 : steady_ns();
  const auto record_dispatch = [&] {
    if (span.active()) {
      span.finish();
      stats_->record_dispatch_ns(span.duration_ns());
    } else {
      stats_->record_dispatch_ns(steady_ns() - started);
    }
  };

  ReplyMessage rep;
  rep.request_id = req.request_id;
  const ServantPtr servant = find_servant(req.object_id);
  if (!servant) {
    rep.status = ReplyStatus::SystemError;
    rep.result = make_error_payload("object-not-found",
                                    "no such object: " + req.object_id + " at " + name_);
    span.set_error("object-not-found");
    record_dispatch();
    return rep;
  }
  try {
    if (req.operation == "_ping") {
      rep.result = Value(true);
    } else if (req.operation == "_interface") {
      rep.result = Value(servant->interface_name());
    } else if (req.operation == "_stats") {
      rep.result = stats_to_value(stats());
    } else {
      rep.result = servant->dispatch(req.operation, req.args);
    }
    rep.status = ReplyStatus::Ok;
  } catch (const BadOperation& e) {
    rep.status = ReplyStatus::SystemError;
    rep.result = make_error_payload("bad-operation", e.what());
    span.set_error(e.what());
  } catch (const Error& e) {
    rep.status = ReplyStatus::UserError;
    rep.result = make_error_payload("error", e.what());
    span.set_error(e.what());
  } catch (const std::exception& e) {
    rep.status = ReplyStatus::UserError;
    rep.result = make_error_payload("error", std::string("servant failure: ") + e.what());
    span.set_error(e.what());
  } catch (...) {
    rep.status = ReplyStatus::UserError;
    rep.result = make_error_payload("error", "servant failure: unknown exception");
    span.set_error("unknown exception");
  }
  record_dispatch();
  return rep;
}

std::optional<Bytes> Orb::handle_payload(const Bytes& payload) {
  const RequestMessage req = decode_request(payload);
  const ReplyMessage rep = dispatch_request(req);
  if (req.oneway) {
    if (rep.status != ReplyStatus::Ok) {
      log_debug("oneway ", req.operation, " failed: ", rep.result.str());
    }
    return std::nullopt;
  }
  return encode_reply(rep);
}

// ---- client side ------------------------------------------------------------

void Orb::validate(const ObjectRef& ref, const std::string& operation) const {
  if (!config_.validate_interfaces || ref.interface.empty()) return;
  if (operation == "_ping" || operation == "_interface" || operation == "_stats") return;
  // An unregistered interface is a dynamic call: nothing to check.
  if (interfaces_->lookup_operation(ref.interface, operation) ==
      InterfaceRepository::OperationLookup::Undeclared) {
    throw BadOperation("interface '" + ref.interface + "' has no operation '" +
                       operation + "'");
  }
}

Value Orb::reply_to_result(const ReplyMessage& rep) {
  if (rep.status == ReplyStatus::Ok) return rep.result;
  std::string code = "error";
  std::string message = rep.result.str();
  if (rep.result.is_table()) {
    const Value c = rep.result.as_table()->get(Value("code"));
    const Value m = rep.result.as_table()->get(Value("message"));
    if (c.is_string()) code = c.as_string();
    if (m.is_string()) message = m.as_string();
  }
  if (code == "object-not-found") throw ObjectNotFound(message);
  if (code == "bad-operation") throw BadOperation(message);
  if (code == "overloaded") throw Overloaded(message);
  if (code == "deadline-exceeded") throw DeadlineExceeded(message);
  throw RemoteError(message);
}

Value Orb::invoke(const ObjectRef& ref, const std::string& operation,
                  const ValueList& args) {
  return invoke_impl(ref, operation, args, /*oneway=*/false, InvokeOptions{});
}

Value Orb::invoke(const ObjectRef& ref, const std::string& operation,
                  const ValueList& args, const InvokeOptions& options) {
  return invoke_impl(ref, operation, args, /*oneway=*/false, options);
}

bool Orb::invoke_oneway(const ObjectRef& ref, const std::string& operation,
                        const ValueList& args) {
  try {
    invoke_impl(ref, operation, args, /*oneway=*/true, InvokeOptions{});
    return true;
  } catch (const Error& e) {
    log_debug("oneway ", operation, " to ", ref.str(), " failed: ", e.what());
    return false;
  }
}

std::future<Value> Orb::invoke_async(const ObjectRef& ref, const std::string& operation,
                                     const ValueList& args) {
  auto self = shared_from_this();
  // Deferred calls join the trace that issued them and keep its deadline.
  return std::async(std::launch::async, [self, ref, operation, args, caller = CallerContext()] {
    return caller.run([&] {
      return self->invoke_impl(ref, operation, args, /*oneway=*/false, InvokeOptions{});
    });
  });
}

bool Orb::ping(const ObjectRef& ref) {
  try {
    return invoke(ref, "_ping").truthy();
  } catch (const Error&) {
    return false;
  }
}

Value Orb::invoke_tcp_once(const ObjectRef& ref, const RequestMessage& req,
                           const ValueList& args, bool oneway, double timeout,
                           bool idempotent) {
  const Bytes encoded = encode_request(req, args);
  stats_->add_request();
  if (oneway) {
    pool_->send(ref.endpoint, encoded, timeout);
    return {};
  }
  const Bytes reply_bytes = pool_->call(ref.endpoint, encoded, timeout, idempotent);
  const ReplyMessage rep = decode_reply(reply_bytes);
  if (rep.request_id != req.request_id) {
    throw TransportError("reply id mismatch (protocol error)");
  }
  stats_->add_reply();
  return reply_to_result(rep);
}

Value Orb::invoke_impl(const ObjectRef& ref, const std::string& operation,
                       const ValueList& args, bool oneway, const InvokeOptions& options) {
  if (ref.empty()) throw OrbError("invoke: empty object reference");
  validate(ref, operation);

  // Client span: one per logical invocation (covers every retry attempt);
  // the span's context rides the wire so the server dispatch parents under
  // it. Near-free when the tracer is disabled.
  obs::SpanOptions span_options;
  span_options.kind = obs::SpanKind::Client;
  span_options.tracer = tracer_.get();
  obs::ScopedSpan span(operation, span_options);
  // One annotation, not several: each annotate costs two string constructions
  // on the per-invocation hot path. The object id is visible on the matching
  // server span; the peer endpoint only the client knows.
  if (span.active()) span.annotate("peer", ref.endpoint);
  // With an active span the invoke histogram reuses the span's clock reads.
  const uint64_t started = span.active() ? 0 : steady_ns();
  const auto record_invoke = [&] {
    if (span.active()) {
      span.finish();
      stats_->record_invoke_ns(span.duration_ns());
    } else {
      stats_->record_invoke_ns(steady_ns() - started);
    }
  };
  // Every exit path — including non-adapt exceptions like bad_alloc from
  // servant or transport code — must mark the span failed and land in the
  // latency histogram; otherwise failed invokes trace as ok and vanish
  // from the percentiles.
  try {
    const Value result = invoke_traced(ref, operation, args, oneway, options, span);
    record_invoke();
    return result;
  } catch (const std::exception& e) {
    span.set_error(e.what());
    record_invoke();
    throw;
  } catch (...) {
    span.set_error("unknown exception");
    record_invoke();
    throw;
  }
}

Value Orb::invoke_traced(const ObjectRef& ref, const std::string& operation,
                         const ValueList& args, bool oneway, const InvokeOptions& options,
                         obs::ScopedSpan& span) {
  // The message header only: over TCP the caller's `args` are encoded in
  // place; a collocated call copies them in below.
  RequestMessage req;
  req.request_id = next_request_id_++;
  req.oneway = oneway;
  req.object_id = ref.object_id;
  req.operation = operation;

  // Local dispatch — our own endpoint, either name.
  const bool is_self =
      ref.endpoint == inproc_endpoint_ || ref.endpoint == primary_endpoint_;
  std::shared_ptr<Orb> target;
  if (is_self) {
    target = shared_from_this();
  } else if (ref.endpoint.rfind("inproc://", 0) == 0) {
    target = InprocRegistry::instance().find(ref.endpoint);
    if (!target) {
      stats_->add_request();
      stats_->add_transport_error();
      throw TransportError("inproc endpoint not reachable: " + ref.endpoint);
    }
  }

  const bool critical =
      options.critical.has_value() ? *options.critical : is_critical(operation);
  double budget =
      options.deadline > 0.0 ? options.deadline : config_.request_timeout;
  // Deadline inheritance: an invoke made from inside a servant dispatch
  // whose request carried a deadline may not outlive what the upstream
  // caller has left — each hop's budget shrinks by the time already spent.
  if (const auto inherited = current_dispatch_remaining()) {
    if (*inherited <= 0.0) {
      stats_->add_timeout();
      throw TimeoutError("caller deadline already exhausted before invoking '" +
                         operation + "' on " + ref.str());
    }
    budget = std::min(budget, *inherited);
  }

  // Context propagation: an in-process peer is this binary, so the context
  // always travels; a TCP peer may predate the v2 tail, so emission there is
  // gated by OrbConfig::propagate_wire_context (a v1 decoder rejects it).
  // The context stays typed here; only encode_request writes it as text.
  const bool emit_context = target != nullptr || config_.propagate_wire_context;
  if (span.active() && emit_context) req.trace = span.context();
  if (emit_context) req.critical = critical;

  if (target) {
    // In-process path: the servant gets what a TCP peer would decode and
    // the caller what it would decode of the reply — wire_copy keeps the
    // by-value semantics (fresh tables, functions refused) without producing
    // bytes. No retry loop here — an unreachable inproc peer is definitively
    // gone, not transiently flaky, and an Overloaded rejection surfaces
    // directly (the caller shares the overloaded process; re-queueing
    // locally would not help).
    req.deadline = budget;
    req.args = wire_copy(args);
    stats_->add_request();
    ReplyMessage rep = target->dispatch_request(req);
    if (oneway) {
      if (rep.status != ReplyStatus::Ok) {
        throw RemoteError("oneway dispatch failed: " + rep.result.str());
      }
      return {};
    }
    // A failure reply's payload is the ORB's own table of strings; only a
    // servant's result can hold what the wire would refuse or share.
    if (rep.status == ReplyStatus::Ok) rep.result = wire_copy(rep.result);
    stats_->add_reply();
    try {
      return reply_to_result(rep);
    } catch (const RejectedError&) {
      stats_->add_overload();
      throw;
    }
  }

  // TCP path: a failed attempt is retried with backoff under one overall
  // deadline when may_reissue(Retry) allows it — idempotent operations on
  // TransportError, any operation on Overloaded (rejected pre-dispatch).
  // Every retry spends a per-endpoint retry-budget token so a server
  // brown-out cannot be amplified into a retry storm. The pool's
  // checkout-time stale detection protects every operation; its post-write
  // redial asks the same rule (the idempotence flag reaches
  // TcpConnectionPool::call).
  const bool idempotent =
      options.idempotent.has_value() ? *options.idempotent : is_idempotent(operation);
  const RetryPolicy policy = options.retry.value_or(RetryPolicy{});
  const int max_attempts = oneway ? 1 : std::max(1, policy.max_attempts);
  const double start = steady_now();
  retry_budget_.on_attempt(ref.endpoint);

  // Backoff sleeps are clamped to the remaining budget: the last exponential
  // sleep must not overshoot the caller's deadline. Returns false (without
  // sleeping) when nothing of the budget is left.
  const auto backoff_within_budget = [&](int attempt) {
    double delay = backoff_delay(policy, attempt);
    const double left = budget - (steady_now() - start);
    if (left <= 0.0) return false;
    delay = std::min(delay, left);
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    stats_->add_retry();
    span.annotate("retry", std::to_string(attempt + 1));
    return true;
  };

  for (int attempt = 0;; ++attempt) {
    const double remaining = budget - (steady_now() - start);
    if (remaining <= 0.0) {
      stats_->add_timeout();
      throw TimeoutError("deadline exceeded invoking '" + operation + "' on " + ref.str());
    }
    try {
      // Fresh request id per attempt: a late reply to an abandoned attempt
      // can then never be mistaken for the current one. The propagated
      // deadline is re-stamped per attempt with what is actually left.
      if (attempt > 0) req.request_id = next_request_id_++;
      if (emit_context) req.deadline = remaining;
      return invoke_tcp_once(ref, req, args, oneway, remaining, idempotent);
    } catch (const OrbError& e) {
      if (dynamic_cast<const TimeoutError*>(&e) != nullptr) {
        stats_->add_timeout();
      } else if (dynamic_cast<const TransportError*>(&e) != nullptr) {
        stats_->add_transport_error();
      } else if (dynamic_cast<const RejectedError*>(&e) != nullptr) {
        stats_->add_overload();
      }
      if (attempt + 1 >= max_attempts || !may_reissue(Reissue::Retry, idempotent, &e) ||
          !retry_budget_.try_spend(ref.endpoint)) {
        throw;
      }
      log_debug("invoke '", operation, "' on ", ref.str(), " failed (", e.what(),
                "), retrying");
      if (!backoff_within_budget(attempt)) throw;
    }
  }
}

bool Orb::is_critical(const std::string& operation) {
  static constexpr std::array<std::string_view, 7> kCriticalOperations = {
      "_ping", "_interface", "_stats", "refresh", "resolve", "query", "list"};
  return std::find(kCriticalOperations.begin(), kCriticalOperations.end(), operation) !=
         kCriticalOperations.end();
}

bool Orb::try_spend_retry_token(const std::string& endpoint) {
  return retry_budget_.try_spend(endpoint);
}

OverloadStats Orb::overload() const {
  OverloadStats o;
  o.in_flight = admission_->in_flight();
  o.queued = admission_->queued();
  o.max_in_flight = admission_->config().max_in_flight;
  o.queue_limit = admission_->config().max_queue;
  o.admitted = admission_->admitted();
  o.shed = admission_->shed();
  o.expired = admission_->expired();
  const OrbStats s = stats_->snapshot();
  if (s.requests_served > 0) {
    o.shed_rate = static_cast<double>(s.requests_shed) /
                  static_cast<double>(s.requests_served);
  }
  return o;
}

Value overload_to_value(const OverloadStats& o) {
  auto t = Table::make();
  t->set(Value("in_flight"), Value(static_cast<uint64_t>(o.in_flight)));
  t->set(Value("queued"), Value(static_cast<uint64_t>(o.queued)));
  t->set(Value("max_in_flight"), Value(static_cast<uint64_t>(o.max_in_flight)));
  t->set(Value("queue_limit"), Value(static_cast<uint64_t>(o.queue_limit)));
  t->set(Value("admitted"), Value(o.admitted));
  t->set(Value("shed"), Value(o.shed));
  t->set(Value("expired"), Value(o.expired));
  t->set(Value("shed_rate"), Value(o.shed_rate));
  return Value(std::move(t));
}

}  // namespace adapt::orb
