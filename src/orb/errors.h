// ORB error taxonomy (CORBA system-exception analog).
#pragma once

#include <exception>

#include "base/error.h"

namespace adapt::orb {

/// Root of ORB-layer failures.
class OrbError : public Error {
 public:
  using Error::Error;
};

/// Could not reach the remote ORB (connect/read/write failure). The standard
/// failover trigger for smart proxies.
///
/// `maybe_executed` records whether the request had been fully written when
/// the failure struck: before the write completes nothing was delivered and
/// re-executing is always safe; after it the peer may have executed the
/// request, so a re-issue is safe only for idempotent operations. Every
/// client path that re-sends a request decides through may_reissue below.
class TransportError : public OrbError {
 public:
  explicit TransportError(const std::string& what, bool maybe_executed = false)
      : OrbError(what), maybe_executed_(maybe_executed) {}

  [[nodiscard]] bool maybe_executed() const { return maybe_executed_; }
  void set_maybe_executed(bool v) { maybe_executed_ = v; }

 private:
  bool maybe_executed_ = false;
};

/// The target ORB is up but no servant is registered under the object id.
class ObjectNotFound : public OrbError {
 public:
  using OrbError::OrbError;
};

/// The remote servant raised an application error; carries its message.
class RemoteError : public OrbError {
 public:
  using OrbError::OrbError;
};

/// The call exceeded the configured request timeout.
class TimeoutError : public TransportError {
 public:
  using TransportError::TransportError;
};

/// Call rejected by interface-repository validation (unknown operation).
class BadOperation : public OrbError {
 public:
  using OrbError::OrbError;
};

/// The server rejected the request *before* servant dispatch (admission
/// control). The servant never ran, so — unlike TransportError after a
/// completed write — re-issuing is safe for any operation, idempotent or not.
class RejectedError : public OrbError {
 public:
  using OrbError::OrbError;
};

/// The server shed the request under overload (in-flight limit or CoDel
/// queue-delay shed). Retriable for every operation because the rejection is
/// guaranteed pre-dispatch, but retries must be paced: clients spend a
/// retry-budget token and back off, and lb treats it as a soft-failure signal
/// (steer away, don't trip the breaker — the replica is up, just busy).
class Overloaded : public RejectedError {
 public:
  using RejectedError::RejectedError;
};

/// The request's propagated deadline had already expired when the server was
/// about to dispatch it (expired on arrival, or while queued for admission).
/// Not worth retrying — the budget that expired is the caller's own.
class DeadlineExceeded : public RejectedError {
 public:
  using RejectedError::RejectedError;
};

/// How a request would be sent again.
enum class Reissue {
  /// To the same endpoint after a backoff (the Orb's retry loop).
  Retry,
  /// Elsewhere after the failure: another component or replica (proxy and
  /// interceptor failover), or a fresh connection in place of a stale
  /// pooled one (the pool's redial).
  Failover,
  /// To another replica while the first attempt is still in flight (lb
  /// hedging), so that attempt may yet execute.
  Hedge,
};

/// The one re-issue rule: may a request that failed with `failure` be sent
/// again `how` without risking a second execution? Every client path asks
/// this; each adds only its own "worth it" conditions (attempts left,
/// deadline left, a retry-budget token).
///
///   failure                  Retry        Failover
///   TimeoutError             never        idempotent or !maybe_executed
///   other TransportError     idempotent   idempotent or !maybe_executed
///   ObjectNotFound           never        always (no servant ran)
///   Overloaded               always       never
///   anything else            never        never
///
/// A Hedge has no failure yet and is allowed for idempotent operations
/// only. Timeouts are not retried in place because the attempt's timeout
/// already was the whole remaining budget, and a missing servant will not
/// appear within a backoff. Overloaded was rejected before dispatch, but the
/// replica is up: the Orb retries it under the retry budget and the balancer
/// steers later picks away, so it is not failed over. DeadlineExceeded is
/// the caller's own budget, and RemoteError/BadOperation are answers.
[[nodiscard]] inline bool may_reissue(Reissue how, bool idempotent,
                                      const std::exception* failure = nullptr) {
  if (how == Reissue::Hedge) return idempotent;
  if (const auto* transport = dynamic_cast<const TransportError*>(failure)) {
    if (how == Reissue::Failover) return idempotent || !transport->maybe_executed();
    return idempotent && dynamic_cast<const TimeoutError*>(failure) == nullptr;
  }
  if (dynamic_cast<const ObjectNotFound*>(failure) != nullptr) {
    return how == Reissue::Failover;
  }
  if (dynamic_cast<const Overloaded*>(failure) != nullptr) return how == Reissue::Retry;
  return false;
}

}  // namespace adapt::orb
