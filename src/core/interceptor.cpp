#include "core/interceptor.h"

#include <algorithm>

#include "base/logging.h"
#include "core/smart_proxy.h"
#include "obs/trace.h"

namespace adapt::core {

void InterceptedCaller::add(std::shared_ptr<Interceptor> interceptor) {
  chain_.push_back(std::move(interceptor));
}

Value InterceptedCaller::invoke(const ObjectRef& target, const std::string& operation,
                                const ValueList& args) {
  // The intercepted call is one span; the underlying ORB invocation(s) —
  // including an interceptor-driven failover retry — nest under it, so a
  // rebind is visible as two client child spans against different peers.
  obs::SpanOptions span_options;
  span_options.tracer = &orb_->tracer();
  obs::ScopedSpan span("intercept:" + operation, span_options);

  ObjectRef effective = target;
  ValueList effective_args = args;
  for (const auto& interceptor : chain_) {
    interceptor->before_invoke(effective, operation, effective_args);
  }
  Value result;
  try {
    result = orb_->invoke(effective, operation, effective_args);
  } catch (const Error& e) {
    // The interceptors are asked only when the re-issue rule allows a
    // failover, so no on_error can re-run a call that may have executed.
    ObjectRef retry;
    const auto asks_retry = [&](const std::shared_ptr<Interceptor>& interceptor) {
      return interceptor->on_error(effective, operation, e, retry);
    };
    if (!orb::may_reissue(orb::Reissue::Failover, orb_->is_idempotent(operation), &e) ||
        std::none_of(chain_.begin(), chain_.end(), asks_retry)) {
      span.set_error(e.what());
      throw;
    }
    span.annotate("failover", retry.str());
    effective = retry;
    result = orb_->invoke(effective, operation, effective_args);
  }
  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
    (*it)->after_invoke(effective, operation, result);
  }
  return result;
}

RebindInterceptor::RebindInterceptor(orb::OrbPtr orb, ObjectRef lookup,
                                     std::string service_type, std::string constraint,
                                     std::string preference)
    : orb_(std::move(orb)),
      lookup_(std::move(lookup)),
      service_type_(std::move(service_type)),
      constraint_(std::move(constraint)),
      preference_(std::move(preference)) {}

void RebindInterceptor::reselect() {
  std::scoped_lock lock(mu_);
  needs_selection_ = true;
}

ObjectRef RebindInterceptor::current() const {
  std::scoped_lock lock(mu_);
  return current_;
}

uint64_t RebindInterceptor::rebinds() const {
  std::scoped_lock lock(mu_);
  return rebinds_;
}

bool RebindInterceptor::run_selection(const ObjectRef& avoid) {
  std::vector<trading::OfferInfo> offers;
  try {
    const Value reply = orb_->invoke(
        lookup_, "query", {Value(service_type_), Value(constraint_), Value(preference_)});
    if (reply.is_table()) {
      const Table& t = *reply.as_table();
      for (int64_t i = 1; i <= t.length(); ++i) {
        offers.push_back(trading::Trader::offer_info_from_value(t.geti(i)));
      }
    }
  } catch (const Error& e) {
    log_warn("rebind interceptor[", service_type_, "]: query failed: ", e.what());
    return false;
  }
  const trading::OfferInfo* chosen = first_offer_avoiding(offers, avoid);
  if (chosen == nullptr) return false;
  std::scoped_lock lock(mu_);
  if (!(chosen->provider == current_)) ++rebinds_;
  current_ = chosen->provider;
  needs_selection_ = false;
  return true;
}

void RebindInterceptor::before_invoke(ObjectRef& target, const std::string&, ValueList&) {
  bool select_now = false;
  {
    std::scoped_lock lock(mu_);
    select_now = needs_selection_ || current_.empty();
  }
  if (select_now && !run_selection(ObjectRef{})) {
    throw Error("rebind interceptor: no component available for '" + service_type_ + "'");
  }
  std::scoped_lock lock(mu_);
  target = current_;
}

bool RebindInterceptor::on_error(const ObjectRef& target, const std::string&, const Error&,
                                 ObjectRef& retry_target) {
  if (!run_selection(target)) return false;
  retry_target = current();
  return !(retry_target == target);
}

void TracingInterceptor::before_invoke(ObjectRef&, const std::string& operation, ValueList&) {
  std::scoped_lock lock(mu_);
  ++calls_;
  operations_.push_back(operation);
}

void TracingInterceptor::after_invoke(const ObjectRef&, const std::string&, Value&) {
  std::scoped_lock lock(mu_);
  ++replies_;
}

uint64_t TracingInterceptor::calls() const {
  std::scoped_lock lock(mu_);
  return calls_;
}

uint64_t TracingInterceptor::replies() const {
  std::scoped_lock lock(mu_);
  return replies_;
}

std::vector<std::string> TracingInterceptor::operations() const {
  std::scoped_lock lock(mu_);
  return operations_;
}

}  // namespace adapt::core
