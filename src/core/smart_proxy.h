// SmartProxy — the paper's central mechanism (SIV-A, Figs. 5 and 7).
//
// A smart proxy represents a *type of service*, not a specific server. It:
//   1. selects the component that best satisfies the client's nonfunctional
//      requirements via the trading service (constraint + preference);
//   2. registers itself as an event observer on the monitors associated
//      with the selected component (shipping event-diagnosing code);
//   3. intercepts every service invocation, first applying the adaptation
//      strategies for any pending events, then forwarding the request to
//      the currently selected component (DII);
//   4. on notification, by default *postpones* handling until the next
//      invocation — "the postponement of event handling avoids conflicts
//      with ongoing traffic when a reconfiguration is done" (paper SIV-A);
//   5. falls back to a sorting-only query when no offer satisfies the
//      constraint (paper SV), and fails over when the selected component
//      becomes unreachable.
//
// Adaptation strategies are either native C++ callbacks or Luma functions
// stored in the proxy's `_strategies` table — the exact structure of the
// paper's Fig. 7 — and can be replaced at run time.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "lb/replica_set.h"
#include "monitor/monitor.h"
#include "monitor/monitor_client.h"
#include "orb/orb.h"
#include "script/engine.h"
#include "trading/trader.h"

namespace adapt::core {

/// No component could be selected for the proxy's service type.
class NoComponentAvailable : public Error {
 public:
  using Error::Error;
};

/// The trader itself was unreachable — distinct from "the trader answered
/// and nothing matched". A subclass of NoComponentAvailable so callers
/// handling the generic case keep working; callers that care (retry the
/// query later vs. relax the constraint) can catch this one specifically.
class TraderUnavailable : public NoComponentAvailable {
 public:
  using NoComponentAvailable::NoComponentAvailable;
};

/// The offer to bind after a call to `failed` failed: the first offer from
/// another provider, else the first offer; null when there are none.
const trading::OfferInfo* first_offer_avoiding(const std::vector<trading::OfferInfo>& offers,
                                               const ObjectRef& failed);

struct SmartProxyConfig {
  /// Trader service type this proxy represents.
  std::string service_type;
  /// Primary constraint, e.g. "LoadAvg < 50 and LoadAvgIncreasing == 'no'".
  std::string constraint;
  /// Preference for ordering matches, e.g. "min LoadAvg".
  std::string preference;
  /// When the primary query returns nothing, retry with sorting only —
  /// empty constraint, same preference (paper SV). Disable for strict mode.
  bool fallback_to_sorted = true;
  /// Postpone event handling to the next invocation (D1, paper SIV-A).
  /// When false, events are handled the moment the notification arrives.
  bool postpone_events = true;
  /// Fail over once — reselect the route, repick the replica or rebind —
  /// when a call fails in a way orb::may_reissue allows to re-send
  /// elsewhere: unreachable or missing component, and for non-idempotent
  /// operations only if the request cannot have executed.
  bool auto_failover = true;
  /// Offer property holding the component's monitor ObjectRef ("" = none).
  std::string monitor_property = "LoadAvgMonitor";
  /// Initial load-balancing policy: "sticky" (the paper's single-bind
  /// behavior, default) | "round_robin" | "p2c" | "weighted". Any non-sticky
  /// policy routes un-routed invocations through a replica set holding
  /// *every* offer matching the query (src/lb) instead of the single bound
  /// component. With "sticky" and no lb.* calls, no replica set is ever
  /// created and the proxy behaves byte-identically to earlier releases.
  std::string lb_policy = "sticky";
  /// Replica-set tuning: refresh TTL, circuit breaker, hedging, clock.
  lb::ReplicaSetConfig lb;
};

class SmartProxy : public std::enable_shared_from_this<SmartProxy> {
 public:
  using NativeStrategy = std::function<void(SmartProxy&)>;

  /// `lookup` is the trader Lookup servant (local or remote). `engine` runs
  /// script strategies; a private engine is created when null.
  static std::shared_ptr<SmartProxy> create(orb::OrbPtr orb, ObjectRef lookup,
                                            SmartProxyConfig config,
                                            std::shared_ptr<script::ScriptEngine> engine = nullptr);
  ~SmartProxy();
  SmartProxy(const SmartProxy&) = delete;
  SmartProxy& operator=(const SmartProxy&) = delete;

  // ---- events of interest & strategies ---------------------------------
  /// Registers interest in `event_id`: on every (re)bind the proxy attaches
  /// itself to the component's monitor with this predicate (Fig. 4).
  void add_interest(const std::string& event_id, const std::string& predicate_code);

  /// Installs a native adaptation strategy for `event_id`.
  void set_strategy(const std::string& event_id, NativeStrategy strategy);
  /// Installs a Luma strategy `function(self) ... end` for `event_id` —
  /// stored in the `_strategies` table (Fig. 7) and replaceable at run time.
  void set_strategy_code(const std::string& event_id, const std::string& code);
  /// Runs a chunk of Luma with the global `smartproxy` bound to this proxy's
  /// script self — the idiom of Fig. 7:
  ///   smartproxy._strategies = { LoadIncrease = function(self) ... end }
  void eval_strategy_script(const std::string& chunk);

  /// Declarative strategies (paper SVI: Lua's "data description facilities
  /// ... allow us to define some simple adaptation strategies in a
  /// declarative, instead of a procedural, way"): a strategy stored as a
  /// *table* instead of a function is interpreted by a built-in driver.
  /// Recognized fields, applied in this order:
  ///   reselect = "<constraint>"  -- re-query; "" uses the configured one
  ///   on_failure_attach = { event = "<id>", predicate = "<code>" }
  ///       -- when the reselect found nothing, re-attach to the current
  ///       -- monitor with a relaxed predicate (the Fig. 7 fallback)
  ///   set = { name = value, ... }  -- set fields on the script self table
  /// Installed like any other strategy:
  ///   proxy->eval_strategy_script("smartproxy._strategies.LoadIncrease = "
  ///                               "{ reselect = 'LoadAvg < 50' }")

  // ---- selection ------------------------------------------------------
  /// Runs the primary query (constraint + preference); falls back to the
  /// sorting-only query when allowed. Returns true when a component was
  /// bound. Does not throw on "nothing found".
  bool select();
  /// Fig. 7 `self:_select(query)`: query with an explicit constraint.
  bool select(const std::string& constraint);

  [[nodiscard]] bool bound() const;
  [[nodiscard]] ObjectRef current() const;
  [[nodiscard]] std::optional<trading::OfferInfo> current_offer() const;
  /// Monitor of the bound component (empty client when none).
  [[nodiscard]] monitor::MonitorClient current_monitor() const;
  /// Providers bound over the proxy's lifetime, in order.
  [[nodiscard]] std::vector<std::string> binding_history() const;

  // ---- invocation (Fig. 5) -------------------------------------------
  /// Handles pending events, then forwards `operation` to the current
  /// component. Selects first if unbound. Throws NoComponentAvailable when
  /// nothing can be selected; propagates remote/application errors.
  Value invoke(const std::string& operation, const ValueList& args = {});

  /// Paper SIV-A, "choice of different components for different requested
  /// operations": `operation` gets its own component, selected with its own
  /// constraint/preference and cached until it fails or routes are cleared.
  void route_operation(const std::string& operation, const std::string& constraint,
                       const std::string& preference = "");
  void clear_operation_routes();
  /// The component currently serving a routed operation (empty if none).
  [[nodiscard]] ObjectRef route_target(const std::string& operation) const;

  /// Paper SIV-A, "use of alternative methods": when the bound component
  /// does not implement `operation`, retry with `alternative` (chains are
  /// allowed; cycles are cut by a depth limit).
  void add_method_alternative(const std::string& operation, const std::string& alternative);

  // ---- load balancing (src/lb) ------------------------------------------
  /// Switches the replica-selection policy at run time (also exposed to
  /// strategy scripts as lb.set_policy). A non-sticky policy creates the
  /// replica set on demand; "sticky" restores the paper's single-bind path
  /// (an existing set is kept for its statistics but no longer routes).
  void set_lb_policy(const std::string& policy);
  [[nodiscard]] std::string lb_policy() const;
  /// The proxy's replica set; with ensure=true it is created (empty, lazily
  /// refreshed from the trader on first pick) if missing. Null when the
  /// proxy has always been sticky and ensure is false.
  lb::ReplicaSetPtr replica_set(bool ensure = false);

  // ---- event channel (decoupled pub/sub) --------------------------------
  /// Subscribes this proxy's channel observer to an EventChannel servant
  /// (same process or remote); delivered events enter the same queue as
  /// direct monitor notifications, so strategies fire identically for both
  /// paths. A rebind does not supersede them: they are not about the bound
  /// component.
  /// `events` filters event ids (empty = all). Replaces any prior channel
  /// subscription. Returns the subscription id.
  std::string subscribe_channel(const ObjectRef& channel,
                                const std::vector<std::string>& events = {});
  /// Drops the channel subscription (no-op when none). Called by the
  /// destructor.
  void unsubscribe_channel();
  [[nodiscard]] bool channel_subscribed() const;

  // ---- event path --------------------------------------------------------
  /// Explicit strategy activation (paper SIV-A; also used by tests). The
  /// event is queued like a delivered one, and no rebind supersedes it.
  void enqueue_event(const std::string& event_id);
  /// Applies strategies for every queued event now. Notifications that
  /// arrived through observer_ref() — the bound monitor's registrations —
  /// are superseded when the proxy rebinds or drops a failed component:
  /// they leave the queue without running their strategy and count in
  /// `proxy.events_superseded`, not in events_handled().
  void handle_pending_events();
  [[nodiscard]] size_t pending_events() const;
  /// The proxy's observer reference (self._observer in strategy code).
  [[nodiscard]] const ObjectRef& observer_ref() const { return observer_ref_; }

  // ---- script integration ---------------------------------------------
  /// The `self` table passed to script strategies: carries _strategies,
  /// _select, _observer, the monitor wrapper field and invoke/current
  /// helpers. Stable across the proxy's lifetime.
  Value script_self();
  [[nodiscard]] const std::shared_ptr<script::ScriptEngine>& engine() const { return engine_; }
  /// The client ORB carrying this proxy's invocations (transport stats via
  /// orb()->stats(); also bound as the Luma global `orb` in `engine()`).
  [[nodiscard]] const orb::OrbPtr& orb() const { return orb_; }

  // ---- diagnostics ------------------------------------------------------
  [[nodiscard]] uint64_t invocations() const;
  [[nodiscard]] uint64_t rebinds() const;
  [[nodiscard]] uint64_t events_handled() const;
  [[nodiscard]] const SmartProxyConfig& config() const { return config_; }

 private:
  SmartProxy(orb::OrbPtr orb, ObjectRef lookup, SmartProxyConfig config,
             std::shared_ptr<script::ScriptEngine> engine);
  void init();

  /// Binds to `offer`: detaches old monitor registrations, attaches new.
  void bind(const trading::OfferInfo& offer);
  void detach_registrations();
  void attach_registrations();
  void handle_event(const std::string& event_id);
  void queue_event(const std::string& event_id, bool from_monitor);
  /// Drops the queued notifications of the monitor the proxy is leaving;
  /// returns how many. Called under mu_ when the binding changes.
  size_t supersede_monitor_events_locked();

  struct Interest {
    std::string event_id;
    std::string predicate_code;
    std::string registration_id;  // on the currently bound monitor
  };

  struct QueuedEvent {
    std::string event_id;
    bool from_monitor = false;  // arrived through observer_ref()
  };

  struct OperationRoute {
    std::string constraint;
    std::string preference;
    ObjectRef target;  // cached selection; empty until first use
  };

  /// invoke() after its proxy span is open: events, then the attempt loop
  /// over the routed, balanced or bound target, with failover.
  Value invoke_traced(const std::string& operation, const ValueList& args);
  /// Forwards to `target`, applying method alternatives on BadOperation.
  Value forward_to(const ObjectRef& target, const std::string& operation,
                   const ValueList& args, int depth = 0);
  /// The component for a routed operation: its cached target, or a fresh
  /// selection avoiding `failed` once a call to it failed.
  ObjectRef resolve_route(const std::string& operation, const OperationRoute& route,
                          const ObjectRef& failed);
  /// The replica set's pick; throws when it has none.
  lb::ReplicaPtr pick_replica(lb::ReplicaSet& set) const;
  /// Drops the bound component after a failed call: detaches from its
  /// monitor and makes the next select() avoid it.
  void unbind_failed(const ObjectRef& target);
  /// Runs a trader query; returns matching offers (possibly none). Throws
  /// TraderUnavailable when the trader itself could not be reached, so
  /// callers can tell an outage from a legitimate no-match.
  std::vector<trading::OfferInfo> query_offers(const std::string& constraint,
                                               const std::string& preference,
                                               const trading::LookupPolicies& policies = {});
  /// The replica set's query: primary constraint with the configured
  /// sorted-query fallback, returning *all* matches in preference order.
  std::vector<trading::OfferInfo> query_offers_all();
  /// Throws TraderUnavailable when the last selection failed because of a
  /// trader outage, NoComponentAvailable otherwise.
  [[noreturn]] void throw_no_component(const std::string& message) const;

  orb::OrbPtr orb_;
  ObjectRef lookup_;
  SmartProxyConfig config_;
  std::shared_ptr<script::ScriptEngine> engine_;

  mutable std::mutex mu_;
  std::optional<trading::OfferInfo> offer_;
  ObjectRef current_;
  ObjectRef current_monitor_ref_;
  ObjectRef last_failed_;
  std::vector<Interest> interests_;
  std::map<std::string, NativeStrategy> native_strategies_;
  std::map<std::string, OperationRoute> routes_;
  std::map<std::string, std::string> method_alternatives_;
  std::deque<QueuedEvent> event_queue_;
  lb::ReplicaSetPtr replica_set_;   // guarded by mu_; created lazily
  bool trader_unreachable_ = false; // last select() failed on trader outage
  bool handling_events_ = false;
  std::vector<std::string> history_;
  uint64_t invocations_ = 0;
  uint64_t rebinds_ = 0;
  uint64_t events_handled_ = 0;

  Value self_;  // script self table (created in init)
  std::shared_ptr<monitor::CallbackObserver> observer_;          // monitors notify it
  ObjectRef observer_ref_;
  std::shared_ptr<monitor::CallbackObserver> channel_observer_;  // the channel delivers to it
  ObjectRef channel_observer_ref_;
  ObjectRef channel_ref_;            // guarded by mu_
  std::string channel_subscription_; // guarded by mu_
};

using SmartProxyPtr = std::shared_ptr<SmartProxy>;

}  // namespace adapt::core
