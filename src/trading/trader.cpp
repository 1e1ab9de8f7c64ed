#include "trading/trader.h"

#include <algorithm>

#include "base/logging.h"

namespace adapt::trading {

namespace {

/// Wire keys marking a dynamic property inside a marshalled property table.
constexpr const char* kDynEvalKey = "__dynamic_eval";
constexpr const char* kDynExtraKey = "__dynamic_extra";

std::vector<std::string> string_list_from_value(const Value& v) {
  std::vector<std::string> out;
  if (!v.is_table()) return out;
  const Table& t = *v.as_table();
  for (int64_t i = 1; i <= t.length(); ++i) out.push_back(t.geti(i).as_string());
  return out;
}

Value string_list_to_value(const std::vector<std::string>& items) {
  auto t = Table::make();
  for (const auto& s : items) t->append(Value(s));
  return Value(std::move(t));
}

}  // namespace

// ---- wire conversion -----------------------------------------------------

Value Trader::property_map_to_value(const PropertyMap& props) {
  auto t = Table::make();
  for (const auto& [name, prop] : props) {
    if (prop.is_dynamic()) {
      auto dyn = Table::make();
      dyn->set(Value(kDynEvalKey), Value(prop.dynamic().eval));
      dyn->set(Value(kDynExtraKey), prop.dynamic().extra);
      t->set(Value(name), Value(std::move(dyn)));
    } else {
      t->set(Value(name), prop.static_value());
    }
  }
  return Value(std::move(t));
}

PropertyMap Trader::property_map_from_value(const Value& v) {
  PropertyMap props;
  if (!v.is_table()) return props;
  for (const auto& [key, val] : *v.as_table()) {
    if (!key.is_string()) continue;
    if (val.is_table()) {
      const Value eval = val.as_table()->get(Value(kDynEvalKey));
      if (eval.is_object()) {
        DynamicProperty dp;
        dp.eval = eval.as_object();
        dp.extra = val.as_table()->get(Value(kDynExtraKey));
        props.emplace(key.as_string(), OfferedProperty(std::move(dp)));
        continue;
      }
    }
    props.emplace(key.as_string(), OfferedProperty(val));
  }
  return props;
}

Value Trader::offer_info_to_value(OfferInfo info) {
  auto t = Table::make();
  t->set(Value("id"), Value(std::move(info.offer_id)));
  t->set(Value("type"), Value(std::move(info.service_type)));
  t->set(Value("provider"), Value(std::move(info.provider)));
  auto props = Table::make();
  for (auto& [name, value] : info.properties) props->set(Value(name), std::move(value));
  t->set(Value("properties"), Value(std::move(props)));
  return Value(std::move(t));
}

OfferInfo Trader::offer_info_from_value(const Value& v) {
  OfferInfo info;
  const Table& t = *v.as_table();
  info.offer_id = t.get(Value("id")).as_string();
  info.service_type = t.get(Value("type")).as_string();
  info.provider = t.get(Value("provider")).as_object();
  const Value props = t.get(Value("properties"));
  if (props.is_table()) {
    for (const auto& [key, val] : *props.as_table()) {
      if (key.is_string()) info.properties[key.as_string()] = val;
    }
  }
  return info;
}

Value Trader::policies_to_value(const LookupPolicies& p) {
  auto t = Table::make();
  t->set(Value("search_card"), Value(static_cast<double>(p.search_card)));
  t->set(Value("return_card"), Value(static_cast<double>(p.return_card)));
  t->set(Value("use_dynamic_properties"), Value(p.use_dynamic_properties));
  t->set(Value("exact_type_match"), Value(p.exact_type_match));
  return Value(std::move(t));
}

LookupPolicies Trader::policies_from_value(const Value& v) {
  LookupPolicies p;
  if (!v.is_table()) return p;
  const Table& t = *v.as_table();
  if (const Value x = t.get(Value("search_card")); x.is_number()) {
    p.search_card = static_cast<size_t>(x.as_number());
  }
  if (const Value x = t.get(Value("return_card")); x.is_number()) {
    p.return_card = static_cast<size_t>(x.as_number());
  }
  if (const Value x = t.get(Value("use_dynamic_properties")); x.is_bool()) {
    p.use_dynamic_properties = x.as_bool();
  }
  if (const Value x = t.get(Value("exact_type_match")); x.is_bool()) {
    p.exact_type_match = x.as_bool();
  }
  return p;
}

// ---- construction -----------------------------------------------------------

Trader::Trader(orb::OrbPtr orb, Config config)
    : orb_(std::move(orb)), config_(std::move(config)), rng_(config_.rng_seed) {
  clock_ = config_.clock ? config_.clock : std::make_shared<RealClock>();
  register_servants();
}

Trader::~Trader() {
  if (!orb_) return;
  orb_->unregister_servant(lookup_ref_.object_id);
  orb_->unregister_servant(register_ref_.object_id);
  orb_->unregister_servant(repository_ref_.object_id);
}

void Trader::register_servants() {
  using orb::FunctionServant;

  auto lookup = FunctionServant::make("TraderLookup");
  lookup->on("query", [this](const ValueList& args) -> Value {
    const std::string type = args.at(0).as_string();
    const std::string constraint = args.size() > 1 && args[1].is_string()
                                       ? args[1].as_string()
                                       : std::string();
    const std::string preference = args.size() > 2 && args[2].is_string()
                                       ? args[2].as_string()
                                       : std::string();
    const std::vector<std::string> desired =
        args.size() > 3 ? string_list_from_value(args[3]) : std::vector<std::string>{};
    const LookupPolicies policies =
        args.size() > 4 ? policies_from_value(args[4]) : LookupPolicies{};
    auto results = query(type, constraint, preference, desired, policies);
    auto out = Table::make();
    int64_t index = 0;
    for (OfferInfo& info : results) out->seti(++index, offer_info_to_value(std::move(info)));
    return Value(std::move(out));
  });
  lookup_ref_ = orb_->register_servant(lookup, config_.name + "/lookup");

  auto reg = FunctionServant::make("TraderRegister");
  reg->on("export", [this](const ValueList& args) -> Value {
    const double lease = args.size() > 3 && args[3].is_number() ? args[3].as_number() : 0;
    return Value(export_offer(args.at(0).as_string(), args.at(1).as_object(),
                              property_map_from_value(args.at(2)), lease));
  });
  reg->on("refresh", [this](const ValueList& args) -> Value {
    refresh(args.at(0).as_string(), args.at(1).as_number());
    return {};
  });
  reg->on("withdraw", [this](const ValueList& args) -> Value {
    withdraw(args.at(0).as_string());
    return {};
  });
  reg->on("modify", [this](const ValueList& args) -> Value {
    modify(args.at(0).as_string(), property_map_from_value(args.at(1)));
    return {};
  });
  reg->on("describe", [this](const ValueList& args) -> Value {
    const ServiceOffer offer = describe(args.at(0).as_string());
    auto t = Table::make();
    t->set(Value("id"), Value(offer.id));
    t->set(Value("type"), Value(offer.service_type));
    t->set(Value("provider"), Value(offer.provider));
    t->set(Value("properties"), property_map_to_value(offer.properties));
    return Value(std::move(t));
  });
  reg->on("withdraw_provider", [this](const ValueList& args) -> Value {
    return Value(static_cast<double>(withdraw_provider(args.at(0).as_object())));
  });
  register_ref_ = orb_->register_servant(reg, config_.name + "/register");

  auto repo = FunctionServant::make("TraderRepository");
  repo->on("addType", [this](const ValueList& args) -> Value {
    ServiceTypeDef def;
    def.name = args.at(0).as_string();
    def.interface = args.at(1).as_string();
    if (args.size() > 2 && args[2].is_table()) {
      const Table& props = *args[2].as_table();
      for (int64_t i = 1; i <= props.length(); ++i) {
        const Table& p = *props.geti(i).as_table();
        PropertyDef pd;
        pd.name = p.get(Value("name")).as_string();
        if (const Value t = p.get(Value("type")); t.is_string()) pd.type = t.as_string();
        if (const Value m = p.get(Value("mode")); m.is_string()) {
          const std::string& mode = m.as_string();
          if (mode == "mandatory") {
            pd.mode = PropertyDef::Mode::Mandatory;
          } else if (mode == "readonly") {
            pd.mode = PropertyDef::Mode::Readonly;
          } else if (mode == "mandatory_readonly") {
            pd.mode = PropertyDef::Mode::MandatoryReadonly;
          }
        }
        def.properties.push_back(std::move(pd));
      }
    }
    if (args.size() > 3) def.supertypes = string_list_from_value(args[3]);
    types_.add(std::move(def));
    return {};
  });
  repo->on("listTypes", [this](const ValueList&) -> Value {
    return string_list_to_value(types_.list());
  });
  repo->on("hasType", [this](const ValueList& args) -> Value {
    return Value(types_.has(args.at(0).as_string()));
  });
  repository_ref_ = orb_->register_servant(repo, config_.name + "/repository");
}

// ---- Register ----------------------------------------------------------------

void Trader::validate_offer(const std::string& service_type, const ObjectRef& provider,
                            const PropertyMap& properties) const {
  const auto type = types_.find(service_type);
  if (!type) throw UnknownServiceType("no such service type: " + service_type);
  if (provider.empty()) throw TradingError("offer provider reference is empty");

  // Interface conformance: only enforceable when both sides are declared.
  if (!type->interface.empty() && !provider.interface.empty() &&
      orb_->interfaces().has(type->interface) && orb_->interfaces().has(provider.interface)) {
    if (!orb_->interfaces().is_a(provider.interface, type->interface)) {
      throw PropertyMismatch("provider implements '" + provider.interface +
                             "' which is not a '" + type->interface + "'");
    }
  }

  for (const PropertyDef& def : types_.effective_properties(service_type)) {
    const auto it = properties.find(def.name);
    if (it == properties.end()) {
      if (def.mandatory()) {
        throw PropertyMismatch("missing mandatory property '" + def.name + "'");
      }
      continue;
    }
    if (!it->second.is_dynamic() &&
        !ServiceTypeRepository::value_matches_type(it->second.static_value(), def.type)) {
      throw PropertyMismatch("property '" + def.name + "' must be " + def.type + ", got " +
                             it->second.static_value().type_name());
    }
  }
}

std::vector<Trader::OfferPtr>::iterator Trader::sequence_slot_locked(uint64_t sequence) {
  return std::lower_bound(
      by_sequence_.begin(), by_sequence_.end(), sequence,
      [](const OfferPtr& o, uint64_t seq) { return o->sequence < seq; });
}

void Trader::publish_locked(OfferPtr offer) {
  const auto pos = sequence_slot_locked(offer->sequence);
  if (pos != by_sequence_.end() && (*pos)->sequence == offer->sequence) {
    *pos = offer;
  } else {
    by_sequence_.insert(pos, offer);
  }
  offers_[offer->id] = std::move(offer);
  snapshot_.reset();
}

void Trader::erase_locked(std::map<std::string, OfferPtr>::iterator it) {
  by_sequence_.erase(sequence_slot_locked(it->second->sequence));
  offers_.erase(it);
  snapshot_.reset();
}

template <class Pred>
size_t Trader::erase_offers_locked(Pred pred) {
  snapshot_.reset();
  std::erase_if(by_sequence_, [&](const OfferPtr& o) { return pred(*o); });
  return std::erase_if(offers_, [&](const auto& entry) { return pred(*entry.second); });
}

std::string Trader::export_offer(const std::string& service_type, const ObjectRef& provider,
                                 PropertyMap properties, double lease_seconds) {
  validate_offer(service_type, provider, properties);
  auto offer = std::make_shared<ServiceOffer>();
  offer->service_type = service_type;
  offer->provider = provider;
  offer->properties = std::move(properties);
  std::scoped_lock lock(mu_);
  const double now = clock_->now();
  erase_offers_locked(
      [&](const ServiceOffer& o) { return o.expires_at > 0 && o.expires_at <= now; });
  offer->id = config_.name + "-offer-" + std::to_string(next_offer_++);
  offer->sequence = sequence_++;
  offer->expires_at = lease_seconds > 0 ? now + lease_seconds : 0;
  const std::string id = offer->id;
  publish_locked(std::move(offer));
  log_debug("trader ", config_.name, ": exported ", id, " type=", service_type);
  return id;
}

void Trader::withdraw(const std::string& offer_id) {
  std::scoped_lock lock(mu_);
  const auto it = offers_.find(offer_id);
  if (it == offers_.end()) throw UnknownOffer("no such offer: " + offer_id);
  erase_locked(it);
}

void Trader::refresh(const std::string& offer_id, double lease_seconds) {
  std::scoped_lock lock(mu_);
  const auto it = offers_.find(offer_id);
  const double now = clock_->now();
  if (it == offers_.end() ||
      (it->second->expires_at > 0 && it->second->expires_at <= now)) {
    if (it != offers_.end()) erase_locked(it);
    throw UnknownOffer("no such live offer: " + offer_id);
  }
  auto renewed = std::make_shared<ServiceOffer>(*it->second);
  renewed->expires_at = lease_seconds > 0 ? now + lease_seconds : 0;
  publish_locked(std::move(renewed));
}

size_t Trader::purge_expired() {
  std::scoped_lock lock(mu_);
  const double now = clock_->now();
  return erase_offers_locked(
      [&](const ServiceOffer& o) { return o.expires_at > 0 && o.expires_at <= now; });
}

size_t Trader::withdraw_provider(const ObjectRef& provider) {
  std::scoped_lock lock(mu_);
  return erase_offers_locked([&](const ServiceOffer& o) { return o.provider == provider; });
}

void Trader::modify(const std::string& offer_id, const PropertyMap& changes) {
  std::scoped_lock lock(mu_);
  const auto it = offers_.find(offer_id);
  if (it == offers_.end()) throw UnknownOffer("no such offer: " + offer_id);
  const ServiceOffer& current = *it->second;
  const auto defs = types_.effective_properties(current.service_type);
  // Validate every change before applying any: a rejected change leaves the
  // published offer untouched.
  for (const auto& [name, prop] : changes) {
    const auto def = std::find_if(defs.begin(), defs.end(),
                                  [&](const PropertyDef& d) { return d.name == name; });
    if (def == defs.end()) continue;
    if (def->readonly() && current.properties.count(name) != 0) {
      throw PropertyMismatch("property '" + name + "' is readonly");
    }
    if (!prop.is_dynamic() &&
        !ServiceTypeRepository::value_matches_type(prop.static_value(), def->type)) {
      throw PropertyMismatch("property '" + name + "' must be " + def->type);
    }
  }
  auto modified = std::make_shared<ServiceOffer>(current);
  for (const auto& [name, prop] : changes) modified->properties[name] = prop;
  publish_locked(std::move(modified));
}

ServiceOffer Trader::describe(const std::string& offer_id) const {
  std::scoped_lock lock(mu_);
  const auto it = offers_.find(offer_id);
  if (it == offers_.end()) throw UnknownOffer("no such offer: " + offer_id);
  return *it->second;
}

size_t Trader::offer_count() const {
  std::scoped_lock lock(mu_);
  return offers_.size();
}

uint64_t Trader::dynamic_evals() const { return dynamic_evals_.load(); }

// ---- Lookup -------------------------------------------------------------

Value Trader::eval_dynamic(const ServiceOffer& offer, const std::string& name,
                           const DynamicProperty& dp) const {
  try {
    Value v = orb_->invoke(dp.eval, "evalDP", {Value(name), dp.extra});
    ++dynamic_evals_;
    return v;
  } catch (const Error& e) {
    log_debug("dynamic property '", name, "' of ", offer.id, " failed: ", e.what());
    return {};
  }
}

void Trader::set_admin(const TraderAdminSettings& settings) {
  std::scoped_lock lock(mu_);
  admin_ = settings;
}

std::vector<OfferInfo> Trader::query(const std::string& service_type,
                                     const std::string& constraint,
                                     const std::string& preference,
                                     const std::vector<std::string>& desired,
                                     const LookupPolicies& requested_policies) {
  if (!types_.has(service_type)) {
    throw UnknownServiceType("no such service type: " + service_type);
  }
  // Clamp importer policies against the Admin limits.
  LookupPolicies policies = requested_policies;
  {
    std::scoped_lock lock(mu_);
    policies.search_card = std::min(policies.search_card, admin_.max_search_card);
    policies.return_card = std::min(policies.return_card, admin_.max_return_card);
    if (!admin_.supports_dynamic_properties) policies.use_dynamic_properties = false;
  }
  const auto parsed_constraint = parses_.constraint(constraint);
  const auto parsed_preference = parses_.preference(preference);
  return query_local(service_type, *parsed_constraint, *parsed_preference, desired, policies);
}

/// The properties one query looks at, by slot: the constraint's names
/// first (so its slots are the query's), then the preference's and the
/// desired list's. Each candidate offer gets a window of one Resolved entry
/// per slot. Static values are borrowed from the offer, which the query's
/// snapshot keeps alive and nobody mutates; dynamic values are held by
/// value. A rejected offer's window is reused by the next one, so
/// evaluating an offer allocates nothing; a matched offer keeps its window,
/// so the ordering and the returned properties see the values the
/// constraint saw. Nothing resolved here outlives the query.
class Trader::OfferSlots final : public SlotLookup {
 public:
  /// `names` point into the query's constraint, preference and desired
  /// list, which outlive it.
  OfferSlots(const Trader& trader, std::vector<const std::string*> names, bool use_dynamic)
      : trader_(trader), names_(std::move(names)), use_dynamic_(use_dynamic) {}

  /// Slot of `name`, or npos when the query does not reference it.
  [[nodiscard]] size_t find(const std::string& name) const {
    const auto it = std::find_if(names_.begin(), names_.end(),
                                 [&](const std::string* n) { return *n == name; });
    return it == names_.end() ? npos : static_cast<size_t>(it - names_.begin());
  }

  /// Points lookups at `offer`, keeping its values in window `window`.
  /// `fresh` clears the window first (a new offer in a reused window).
  void bind(const ServiceOffer& offer, size_t window, bool fresh) {
    offer_ = &offer;
    base_ = window * names_.size();
    if (resolved_.size() < base_ + names_.size()) resolved_.resize(base_ + names_.size());
    if (!fresh) return;
    for (size_t i = 0; i < names_.size(); ++i) resolved_[base_ + i].state = State::Unresolved;
  }

  const Value* get(size_t slot) override {
    Resolved& r = resolved_[base_ + slot];
    switch (r.state) {
      case State::Unresolved: return resolve(*names_[slot], r);
      case State::Undefined: return nullptr;
      case State::Static: return r.borrowed;
      case State::Dynamic: return &r.owned;
    }
    return nullptr;
  }

  /// The bound offer's value of `name` (nil when undefined); through its
  /// slot when it has one, so a dynamic property is evaluated only once.
  Value value(const std::string& name) {
    const size_t slot = find(name);
    Resolved scratch;
    const Value* v = slot != npos ? get(slot) : resolve(name, scratch);
    return v != nullptr ? *v : Value();
  }

  static constexpr size_t npos = static_cast<size_t>(-1);

 private:
  enum class State : uint8_t { Unresolved, Undefined, Static, Dynamic };
  struct Resolved {
    State state = State::Unresolved;
    const Value* borrowed = nullptr;
    Value owned;
  };

  const Value* resolve(const std::string& name, Resolved& r) {
    r.state = State::Undefined;
    const auto it = offer_->properties.find(name);
    if (it == offer_->properties.end()) return nullptr;
    const OfferedProperty& prop = it->second;
    if (!prop.is_dynamic()) {
      if (prop.static_value().is_nil()) return nullptr;
      r.state = State::Static;
      r.borrowed = &prop.static_value();
      return r.borrowed;
    }
    if (!use_dynamic_) return nullptr;
    r.owned = trader_.eval_dynamic(*offer_, name, prop.dynamic());
    if (r.owned.is_nil()) return nullptr;
    r.state = State::Dynamic;
    return &r.owned;
  }

  const Trader& trader_;
  const std::vector<const std::string*> names_;
  const bool use_dynamic_;
  const ServiceOffer* offer_ = nullptr;
  size_t base_ = 0;
  std::vector<Resolved> resolved_;
};

namespace {

/// Presents a sub-expression's slots (the preference's) through the query's.
class RemappedSlots final : public SlotLookup {
 public:
  RemappedSlots(SlotLookup& inner, const std::vector<size_t>& to_query)
      : inner_(inner), to_query_(to_query) {}
  const Value* get(size_t slot) override { return inner_.get(to_query_[slot]); }

 private:
  SlotLookup& inner_;
  const std::vector<size_t>& to_query_;
};

}  // namespace

std::shared_ptr<const std::vector<Trader::OfferPtr>> Trader::snapshot() {
  std::scoped_lock lock(mu_);
  if (!snapshot_) snapshot_ = std::make_shared<const std::vector<OfferPtr>>(by_sequence_);
  return snapshot_;
}

std::vector<OfferInfo> Trader::query_local(const std::string& service_type,
                                           const Constraint& constraint,
                                           const Preference& preference,
                                           const std::vector<std::string>& desired,
                                           const LookupPolicies& policies) {
  // The snapshot is taken under the lock; evaluation runs without it
  // (dynamic properties call back into servants — CP.22), and the snapshot
  // keeps its offers alive whatever writers publish meanwhile.
  const auto offers = snapshot();
  const double now = clock_->now();

  std::vector<const std::string*> names;
  const auto slot_of = [&](const std::string& name) {
    const auto it = std::find_if(names.begin(), names.end(),
                                 [&](const std::string* n) { return *n == name; });
    if (it != names.end()) return static_cast<size_t>(it - names.begin());
    names.push_back(&name);
    return names.size() - 1;
  };
  for (const std::string& name : constraint.referenced_properties()) slot_of(name);
  std::vector<size_t> preference_slots;
  for (const std::string& name : preference.expr().referenced_properties()) {
    preference_slots.push_back(slot_of(name));
  }
  for (const std::string& name : desired) slot_of(name);
  OfferSlots slots(*this, std::move(names), policies.use_dynamic_properties);
  RemappedSlots preference_view(slots, preference_slots);

  // Type conformance is decided once per distinct offer type, not once per
  // offer: the type repository takes its own lock.
  std::vector<std::pair<std::string_view, bool>> conforms;
  const auto type_ok = [&](const std::string& type) {
    if (policies.exact_type_match) return type == service_type;
    for (const auto& [seen, ok] : conforms) {
      if (seen == type) return ok;
    }
    const bool ok = types_.is_subtype(type, service_type);
    conforms.emplace_back(type, ok);
    return ok;
  };

  struct Matched {
    const ServiceOffer* offer;
    size_t window;                // the offer's resolved values in `slots`
    std::optional<double> score;  // min/max preference key
    bool with_match = false;
  };
  std::vector<Matched> matched;
  size_t considered = 0;
  for (const OfferPtr& offer : *offers) {
    if (considered == policies.search_card) break;
    if (offer->expires_at > 0 && offer->expires_at <= now) continue;  // lease ran out
    if (!type_ok(offer->service_type)) continue;
    ++considered;
    slots.bind(*offer, matched.size(), /*fresh=*/true);
    if (!constraint.matches(slots)) continue;
    Matched m{offer.get(), matched.size(), std::nullopt, false};
    switch (preference.kind()) {
      case Preference::Kind::Min:
      case Preference::Kind::Max:
        m.score = preference.expr().evaluate_numeric(preference_view);
        break;
      case Preference::Kind::With:
        m.with_match = preference.expr().matches(preference_view);
        break;
      default:
        break;
    }
    matched.push_back(m);
  }

  // Order per preference. Offers whose preference expression could not be
  // evaluated follow the ordered ones (OMG semantics); stable sort keeps
  // registration order within equal keys.
  switch (preference.kind()) {
    case Preference::Kind::Min:
      std::stable_sort(matched.begin(), matched.end(), [](const Matched& a, const Matched& b) {
        if (a.score && b.score) return *a.score < *b.score;
        return a.score.has_value() && !b.score.has_value();
      });
      break;
    case Preference::Kind::Max:
      std::stable_sort(matched.begin(), matched.end(), [](const Matched& a, const Matched& b) {
        if (a.score && b.score) return *a.score > *b.score;
        return a.score.has_value() && !b.score.has_value();
      });
      break;
    case Preference::Kind::With:
      std::stable_sort(matched.begin(), matched.end(), [](const Matched& a, const Matched& b) {
        return a.with_match && !b.with_match;
      });
      break;
    case Preference::Kind::Random: {
      std::scoped_lock lock(mu_);
      std::shuffle(matched.begin(), matched.end(), rng_);
      break;
    }
    case Preference::Kind::First:
      break;
  }

  // Offers past return_card are never returned, so their results (and any
  // dynamic property only a result would read) are not built.
  matched.resize(std::min(matched.size(), policies.return_card));
  std::vector<OfferInfo> results;
  results.reserve(matched.size());
  for (const Matched& m : matched) {
    slots.bind(*m.offer, m.window, /*fresh=*/false);
    OfferInfo info;
    info.offer_id = m.offer->id;
    info.service_type = m.offer->service_type;
    info.provider = m.offer->provider;
    const auto add = [&](const std::string& name) {
      Value v = slots.value(name);
      if (!v.is_nil()) info.properties[name] = std::move(v);
    };
    if (desired.empty()) {
      for (const auto& [name, prop] : m.offer->properties) add(name);
    } else {
      for (const std::string& name : desired) add(name);
    }
    results.push_back(std::move(info));
  }
  return results;
}

// ---- TraderClient -----------------------------------------------------------

TraderClient::TraderClient(orb::OrbPtr orb, ObjectRef lookup, ObjectRef register_ref)
    : orb_(std::move(orb)), lookup_(std::move(lookup)), register_(std::move(register_ref)) {}

std::vector<OfferInfo> TraderClient::query(const std::string& service_type,
                                           const std::string& constraint,
                                           const std::string& preference,
                                           const std::vector<std::string>& desired,
                                           const LookupPolicies& policies) {
  const Value reply = orb_->invoke(
      lookup_, "query",
      {Value(service_type), Value(constraint), Value(preference),
       string_list_to_value(desired), Trader::policies_to_value(policies)});
  std::vector<OfferInfo> out;
  if (!reply.is_table()) return out;
  const Table& t = *reply.as_table();
  for (int64_t i = 1; i <= t.length(); ++i) {
    out.push_back(Trader::offer_info_from_value(t.geti(i)));
  }
  return out;
}

std::string TraderClient::export_offer(const std::string& service_type,
                                       const ObjectRef& provider,
                                       const PropertyMap& properties, double lease_seconds) {
  if (register_.empty()) throw TradingError("TraderClient has no Register reference");
  return orb_
      ->invoke(register_, "export",
               {Value(service_type), Value(provider), Trader::property_map_to_value(properties),
                Value(lease_seconds)})
      .as_string();
}

void TraderClient::refresh(const std::string& offer_id, double lease_seconds) {
  if (register_.empty()) throw TradingError("TraderClient has no Register reference");
  orb_->invoke(register_, "refresh", {Value(offer_id), Value(lease_seconds)});
}

void TraderClient::withdraw(const std::string& offer_id) {
  if (register_.empty()) throw TradingError("TraderClient has no Register reference");
  orb_->invoke(register_, "withdraw", {Value(offer_id)});
}

void TraderClient::modify(const std::string& offer_id, const PropertyMap& changes) {
  if (register_.empty()) throw TradingError("TraderClient has no Register reference");
  orb_->invoke(register_, "modify", {Value(offer_id), Trader::property_map_to_value(changes)});
}

}  // namespace adapt::trading
