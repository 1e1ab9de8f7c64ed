// The trading service (OMG CosTrading Lookup/Register subset).
//
// This is the component-selection substrate of the paper (SIV): service
// agents export offers describing server components with static and
// *dynamic* nonfunctional properties; smart proxies query for offers whose
// properties satisfy a constraint, ordered by a preference. Dynamic
// properties hold a reference to an evaluator object (in this system,
// usually a monitor) that the trader calls back — `evalDP` — at lookup time,
// so selection always sees live values such as the current load average.
//
// The trader is usable two ways:
//  * directly, through the C++ API below;
//  * remotely, through three ORB servants (Lookup / Register / Repository)
//    so agents and proxies on other "hosts" interact with it exactly the way
//    CORBA clients talk to CosTrading.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "orb/orb.h"
#include "trading/constraint.h"
#include "trading/errors.h"
#include "trading/service_types.h"

namespace adapt::trading {

/// A property whose value is fetched from an evaluator object on demand
/// (CosTradingDynamic::DynamicProp). `extra` is passed through to evalDP.
struct DynamicProperty {
  ObjectRef eval;
  Value extra;
};

/// A property attached to an offer: static value or dynamic evaluator.
class OfferedProperty {
 public:
  OfferedProperty() = default;
  OfferedProperty(Value v) : value_(std::move(v)) {}  // implicit: ergonomic maps
  explicit OfferedProperty(DynamicProperty dp) : dynamic_(std::move(dp)) {}

  [[nodiscard]] bool is_dynamic() const { return dynamic_.has_value(); }
  [[nodiscard]] const Value& static_value() const { return value_; }
  [[nodiscard]] const DynamicProperty& dynamic() const { return *dynamic_; }

 private:
  Value value_;
  std::optional<DynamicProperty> dynamic_;
};

using PropertyMap = std::map<std::string, OfferedProperty>;

struct ServiceOffer {
  std::string id;
  std::string service_type;
  ObjectRef provider;
  PropertyMap properties;
  uint64_t sequence = 0;  // registration order (preference "first")
  /// Absolute expiry time on the trader's clock; <= 0 means no lease.
  /// Expired offers never match queries and the next export purges them —
  /// service agents keep their offers alive with periodic refreshes
  /// (heartbeats), so a crashed host's stale offers disappear by themselves.
  double expires_at = 0;
};

struct LookupPolicies {
  /// Upper bound on offers considered (constraint evaluations).
  size_t search_card = 1000;
  /// Upper bound on offers returned.
  size_t return_card = 100;
  /// When false, dynamic properties are treated as undefined (OMG
  /// use_dynamic_properties policy) — no evaluator callbacks happen.
  bool use_dynamic_properties = true;
  /// When true, subtype offers are not considered.
  bool exact_type_match = false;
};

/// Trader-wide limits (OMG CosTrading::Admin subset). Importer policies are
/// clamped against these, so a misbehaving client cannot force unbounded
/// searches.
struct TraderAdminSettings {
  size_t max_search_card = 10000;
  size_t max_return_card = 1000;
  /// When false, dynamic properties are globally disabled (evalDP is never
  /// called) regardless of importer policy.
  bool supports_dynamic_properties = true;
};

/// A matched offer with its resolved property values.
struct OfferInfo {
  std::string offer_id;
  std::string service_type;
  ObjectRef provider;
  std::map<std::string, Value> properties;
};

struct TraderConfig {
  std::string name = "trader";
  uint32_t rng_seed = 1234;  // behind the "random" preference
  /// Clock for offer leases; RealClock when null.
  ClockPtr clock = {};
};

class Trader {
 public:
  using Config = TraderConfig;

  /// Registers the Lookup/Register/Repository servants with `orb`.
  explicit Trader(orb::OrbPtr orb, Config config = {});
  ~Trader();
  Trader(const Trader&) = delete;
  Trader& operator=(const Trader&) = delete;

  [[nodiscard]] ServiceTypeRepository& types() { return types_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

  // ---- Register interface ---------------------------------------------
  /// Exports an offer; returns the offer id. Validates the service type,
  /// mandatory properties, property value types and (when the interface
  /// repository knows both) provider interface conformance.
  /// `lease_seconds` > 0 makes the offer expire unless refreshed in time.
  /// Also drops every offer whose lease has run out.
  std::string export_offer(const std::string& service_type, const ObjectRef& provider,
                           PropertyMap properties, double lease_seconds = 0);
  /// Extends an offer's lease by `lease_seconds` from now (0 = make
  /// permanent). Throws UnknownOffer — including for already-expired offers.
  void refresh(const std::string& offer_id, double lease_seconds);
  /// Drops expired offers now; returns how many were removed. Queries
  /// ignore expired offers regardless.
  size_t purge_expired();
  void withdraw(const std::string& offer_id);
  /// Replaces the given properties (readonly properties cannot change).
  /// All-or-nothing: every change is validated before any is applied.
  void modify(const std::string& offer_id, const PropertyMap& changes);
  [[nodiscard]] ServiceOffer describe(const std::string& offer_id) const;
  [[nodiscard]] size_t offer_count() const;
  /// Withdraws every offer whose provider matches `provider`.
  size_t withdraw_provider(const ObjectRef& provider);

  // ---- Lookup interface ---------------------------------------------------
  /// Core query. Throws UnknownServiceType / IllegalConstraint /
  /// IllegalPreference. Never throws for evaluation-time type errors —
  /// offers that cannot be evaluated simply do not match (OMG semantics).
  /// Dynamic properties are evaluated at most once per offer per query, and
  /// no value outlives the query. Evaluators may call back into this trader.
  std::vector<OfferInfo> query(const std::string& service_type,
                               const std::string& constraint,
                               const std::string& preference = "",
                               const std::vector<std::string>& desired_properties = {},
                               const LookupPolicies& policies = {});

  // ---- Admin interface ---------------------------------------------------
  void set_admin(const TraderAdminSettings& settings);

  // ---- ORB exposure ------------------------------------------------------
  [[nodiscard]] const ObjectRef& lookup_ref() const { return lookup_ref_; }
  [[nodiscard]] const ObjectRef& register_ref() const { return register_ref_; }
  [[nodiscard]] const ObjectRef& repository_ref() const { return repository_ref_; }

  /// Number of evalDP callbacks performed (diagnostics/benchmarks).
  [[nodiscard]] uint64_t dynamic_evals() const;

  // ---- wire conversion helpers (shared with remote clients) ------------
  static Value offer_info_to_value(OfferInfo info);
  static OfferInfo offer_info_from_value(const Value& v);
  static Value property_map_to_value(const PropertyMap& props);
  static PropertyMap property_map_from_value(const Value& v);
  static Value policies_to_value(const LookupPolicies& p);
  static LookupPolicies policies_from_value(const Value& v);

 private:
  /// Offers are immutable once published: modify and refresh publish a new
  /// object, so a query's snapshot is a vector of these pointers.
  using OfferPtr = std::shared_ptr<const ServiceOffer>;
  class OfferSlots;

  void register_servants();
  std::vector<OfferInfo> query_local(const std::string& service_type,
                                     const Constraint& constraint,
                                     const Preference& preference,
                                     const std::vector<std::string>& desired,
                                     const LookupPolicies& policies);
  /// The live index as one shared, immutable vector in registration order.
  /// Writers drop it; the next query rebuilds it, so queries between two
  /// writes share one copy.
  std::shared_ptr<const std::vector<OfferPtr>> snapshot();
  /// Calls the property's evaluator; nil when the call fails.
  Value eval_dynamic(const ServiceOffer& offer, const std::string& name,
                     const DynamicProperty& dp) const;
  void validate_offer(const std::string& service_type, const ObjectRef& provider,
                      const PropertyMap& properties) const;
  std::vector<OfferPtr>::iterator sequence_slot_locked(uint64_t sequence);
  void publish_locked(OfferPtr offer);
  void erase_locked(std::map<std::string, OfferPtr>::iterator it);
  template <class Pred>
  size_t erase_offers_locked(Pred pred);

  orb::OrbPtr orb_;
  Config config_;
  ClockPtr clock_;
  ServiceTypeRepository types_;

  ParseCache parses_;

  mutable std::mutex mu_;
  TraderAdminSettings admin_;
  std::map<std::string, OfferPtr> offers_;  // by id
  std::vector<OfferPtr> by_sequence_;       // registration order
  std::shared_ptr<const std::vector<OfferPtr>> snapshot_;  // by_sequence_, shared
  uint64_t next_offer_ = 1;
  uint64_t sequence_ = 0;
  std::mt19937 rng_;

  mutable std::atomic<uint64_t> dynamic_evals_{0};

  ObjectRef lookup_ref_;
  ObjectRef register_ref_;
  ObjectRef repository_ref_;
};

/// Client-side convenience for talking to a (possibly remote) trader through
/// its Lookup/Register servants — the LuaTrading analog for C++ callers.
class TraderClient {
 public:
  TraderClient(orb::OrbPtr orb, ObjectRef lookup, ObjectRef register_ref = {});

  std::vector<OfferInfo> query(const std::string& service_type,
                               const std::string& constraint,
                               const std::string& preference = "",
                               const std::vector<std::string>& desired_properties = {},
                               const LookupPolicies& policies = {});

  std::string export_offer(const std::string& service_type, const ObjectRef& provider,
                           const PropertyMap& properties, double lease_seconds = 0);
  void refresh(const std::string& offer_id, double lease_seconds);
  void withdraw(const std::string& offer_id);
  void modify(const std::string& offer_id, const PropertyMap& changes);

  [[nodiscard]] const ObjectRef& lookup_ref() const { return lookup_; }

 private:
  orb::OrbPtr orb_;
  ObjectRef lookup_;
  ObjectRef register_;
};

}  // namespace adapt::trading
