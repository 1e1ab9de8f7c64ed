#include "orb/admission.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace adapt::orb {

namespace {

double steady_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// CodelLaw

bool CodelLaw::should_shed(double now, double sojourn) {
  if (sojourn < target_) {
    // Delay dipped below target: the queue is draining on its own. Leave
    // drop state but keep drop_count_ so a quick relapse resumes shedding
    // near the previous rate instead of re-ramping from scratch.
    first_above_ = 0.0;
    dropping_ = false;
    return false;
  }
  if (first_above_ == 0.0) {
    // First observation above target: arm the interval timer.
    first_above_ = now + interval_;
    return false;
  }
  if (!dropping_) {
    if (now < first_above_) return false;  // not above target long enough yet
    // Standing queue confirmed: enter drop state and shed immediately.
    // Resuming soon after the last drop state continues from a slightly
    // decayed count (classic CoDel) so the control law converges quickly
    // under sustained overload.
    dropping_ = true;
    drop_count_ = drop_count_ > 2 ? drop_count_ - 2 : 1;
    drop_next_ = now;
  }
  if (now >= drop_next_) {
    ++drop_count_;
    drop_next_ = now + interval_ / std::sqrt(static_cast<double>(drop_count_));
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// AdmissionController

AdmissionController::AdmissionController(const AdmissionConfig& cfg)
    : cfg_(cfg), codel_(cfg.codel_target, cfg.codel_interval) {}

void AdmissionController::remove_ticket(uint64_t ticket) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (*it == ticket) {
      queue_.erase(it);
      return;
    }
  }
}

AdmissionController::Decision AdmissionController::acquire(
    bool critical, double deadline_remaining) {
  std::unique_lock<std::mutex> lk(mu_);
  if (closed_) {
    ++shed_;
    return Decision::Shed;
  }
  if (critical || cfg_.max_in_flight == 0) {
    // Criticality bypass: control traffic is admitted even beyond the limit.
    // The set of critical operations is small and cheap by construction
    // (heartbeats, probes, lookups), so the overshoot is bounded in practice.
    ++in_flight_;
    ++admitted_;
    return Decision::Admitted;
  }
  double now = steady_now();
  if (in_flight_ < cfg_.max_in_flight && queue_.empty()) {
    codel_.should_shed(now, 0.0);  // zero sojourn resets the drop state
    ++in_flight_;
    ++admitted_;
    return Decision::Admitted;
  }
  if (queue_.size() >= cfg_.max_queue) {
    ++shed_;
    return Decision::Shed;
  }
  const uint64_t ticket = next_ticket_++;
  queue_.push_back(ticket);
  const double enqueued = now;
  while (true) {
    if (closed_) {
      remove_ticket(ticket);
      ++shed_;
      return Decision::Shed;
    }
    now = steady_now();
    const double sojourn = now - enqueued;
    if (deadline_remaining > 0.0 && sojourn >= deadline_remaining) {
      remove_ticket(ticket);
      ++expired_;
      cv_.notify_all();
      return Decision::Expired;
    }
    if (sojourn >= cfg_.max_queue_wait) {
      remove_ticket(ticket);
      ++shed_;
      cv_.notify_all();
      return Decision::Shed;
    }
    if (!queue_.empty() && queue_.front() == ticket &&
        in_flight_ < cfg_.max_in_flight) {
      queue_.pop_front();
      if (codel_.should_shed(now, sojourn)) {
        // Shedding the head leaves the slot free; wake the next waiter so
        // it can claim it (its own, shorter sojourn re-runs the law).
        ++shed_;
        cv_.notify_all();
        return Decision::Shed;
      }
      ++in_flight_;
      ++admitted_;
      cv_.notify_all();
      return Decision::Admitted;
    }
    // Sleep until the earliest event that could change the decision: a
    // release() wakes us; otherwise re-check at our own expiry/shed bound.
    double until = cfg_.max_queue_wait - sojourn;
    if (deadline_remaining > 0.0) {
      until = std::min(until, deadline_remaining - sojourn);
    }
    until = std::clamp(until, 1e-4, 0.05);
    cv_.wait_for(lk, std::chrono::duration<double>(until));
  }
}

void AdmissionController::release() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (in_flight_ > 0) --in_flight_;
  }
  cv_.notify_all();
}

void AdmissionController::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t AdmissionController::in_flight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return in_flight_;
}

std::size_t AdmissionController::queued() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

uint64_t AdmissionController::admitted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return admitted_;
}

uint64_t AdmissionController::shed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shed_;
}

uint64_t AdmissionController::expired() const {
  std::lock_guard<std::mutex> lk(mu_);
  return expired_;
}

// ---------------------------------------------------------------------------
// RetryBudget

void RetryBudget::on_attempt(const std::string& endpoint) {
  std::lock_guard<std::mutex> lk(mu_);
  auto [it, inserted] = buckets_.try_emplace(endpoint, cfg_.cap);
  if (!inserted) it->second = std::min(cfg_.cap, it->second + cfg_.ratio);
}

bool RetryBudget::try_spend(const std::string& endpoint) {
  std::lock_guard<std::mutex> lk(mu_);
  auto [it, inserted] = buckets_.try_emplace(endpoint, cfg_.cap);
  // Epsilon absorbs accumulation error: ten 0.1-token earns must buy
  // exactly the one retry they advertise.
  if (it->second < 1.0 - 1e-9) return false;
  it->second = std::max(0.0, it->second - 1.0);
  return true;
}

double RetryBudget::tokens(const std::string& endpoint) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = buckets_.find(endpoint);
  return it == buckets_.end() ? cfg_.cap : it->second;
}

// ---------------------------------------------------------------------------
// DispatchDeadlineScope

namespace {
// Absolute steady-clock expiry (seconds) of the innermost dispatch on this
// thread; 0 = no deadline in scope.
thread_local double g_dispatch_expiry = 0.0;
}  // namespace

DispatchDeadlineScope::DispatchDeadlineScope(double remaining)
    : prev_(g_dispatch_expiry) {
  g_dispatch_expiry = remaining > 0.0 ? steady_now() + remaining : 0.0;
}

DispatchDeadlineScope::~DispatchDeadlineScope() { g_dispatch_expiry = prev_; }

std::optional<double> current_dispatch_remaining() {
  if (g_dispatch_expiry == 0.0) return std::nullopt;
  return g_dispatch_expiry - steady_now();
}

CallerContext::CallerContext()
    : trace_(obs::current_context()), expiry_(g_dispatch_expiry) {}

CallerContext::Installed::Installed(const CallerContext& caller)
    : trace_(caller.trace_), prev_expiry_(g_dispatch_expiry) {
  g_dispatch_expiry = caller.expiry_;
}

CallerContext::Installed::~Installed() { g_dispatch_expiry = prev_expiry_; }

}  // namespace adapt::orb
