// Portable-interceptor-style adaptation (the paper's SVI ongoing work):
// "With this integration, we will be able to implement CORBA interceptors
// ... and use them, instead of the smart proxy mechanism, to apply the
// adaptation strategies ... [and] plug our dynamic adaptation support into
// standard CORBA applications."
//
// An InterceptedCaller wraps ORB invocation with a chain of interceptors
// that can rewrite the target (rebinding), observe results, and handle
// errors (failover) — adaptation without a smart proxy in the client's
// object model.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "orb/orb.h"
#include "trading/trader.h"

namespace adapt::core {

class Interceptor {
 public:
  virtual ~Interceptor() = default;
  Interceptor() = default;
  Interceptor(const Interceptor&) = delete;
  Interceptor& operator=(const Interceptor&) = delete;

  /// Called before the request goes out; may rewrite `target` or `args`.
  virtual void before_invoke(ObjectRef& target, const std::string& operation,
                             ValueList& args) {
    (void)target;
    (void)operation;
    (void)args;
  }
  /// Called after a successful reply; may rewrite `result`.
  virtual void after_invoke(const ObjectRef& target, const std::string& operation,
                            Value& result) {
    (void)target;
    (void)operation;
    (void)result;
  }
  /// Called when a failed request may be re-sent elsewhere
  /// (orb::may_reissue with Reissue::Failover). Return true (and set
  /// retry_target) to retry it once against a new target.
  virtual bool on_error(const ObjectRef& target, const std::string& operation,
                        const Error& error, ObjectRef& retry_target) {
    (void)target;
    (void)operation;
    (void)error;
    (void)retry_target;
    return false;
  }
};

/// Invocation path with an interceptor chain (applied in order for
/// before_invoke, reverse order for after_invoke, first-match for on_error).
class InterceptedCaller {
 public:
  explicit InterceptedCaller(orb::OrbPtr orb) : orb_(std::move(orb)) {}

  void add(std::shared_ptr<Interceptor> interceptor);
  Value invoke(const ObjectRef& target, const std::string& operation,
               const ValueList& args = {});

 private:
  orb::OrbPtr orb_;
  std::vector<std::shared_ptr<Interceptor>> chain_;
};

/// The adaptation interceptor: keeps the target bound to the best trader
/// offer; reroutes calls after `reselect()` is triggered (by an event
/// observer, a monitor, or application code) and fails over transparently.
/// Plugging this into an InterceptedCaller gives a *standard* client (one
/// that calls fixed references) the same adaptivity as a smart proxy.
class RebindInterceptor : public Interceptor {
 public:
  RebindInterceptor(orb::OrbPtr orb, ObjectRef lookup, std::string service_type,
                    std::string constraint = "", std::string preference = "");

  /// Forces a fresh trader query before the next request.
  void reselect();
  [[nodiscard]] ObjectRef current() const;
  [[nodiscard]] uint64_t rebinds() const;

  void before_invoke(ObjectRef& target, const std::string& operation,
                     ValueList& args) override;
  bool on_error(const ObjectRef& target, const std::string& operation, const Error& error,
                ObjectRef& retry_target) override;

 private:
  bool run_selection(const ObjectRef& avoid);

  orb::OrbPtr orb_;
  ObjectRef lookup_;
  std::string service_type_;
  std::string constraint_;
  std::string preference_;

  mutable std::mutex mu_;
  ObjectRef current_;
  bool needs_selection_ = true;
  uint64_t rebinds_ = 0;
};

/// Diagnostic interceptor: counts calls and records operation names.
class TracingInterceptor : public Interceptor {
 public:
  void before_invoke(ObjectRef& target, const std::string& operation,
                     ValueList& args) override;
  void after_invoke(const ObjectRef& target, const std::string& operation,
                    Value& result) override;

  [[nodiscard]] uint64_t calls() const;
  [[nodiscard]] uint64_t replies() const;
  [[nodiscard]] std::vector<std::string> operations() const;

 private:
  mutable std::mutex mu_;
  uint64_t calls_ = 0;
  uint64_t replies_ = 0;
  std::vector<std::string> operations_;
};

}  // namespace adapt::core
