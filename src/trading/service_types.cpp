#include "trading/service_types.h"

#include <algorithm>

namespace adapt::trading {

void ServiceTypeRepository::add(ServiceTypeDef def) {
  std::scoped_lock lock(mu_);
  if (types_.count(def.name) != 0) {
    throw DuplicateServiceType("service type already exists: " + def.name);
  }
  for (const std::string& super : def.supertypes) {
    if (types_.count(super) == 0) {
      throw UnknownServiceType("unknown supertype '" + super + "' for '" + def.name + "'");
    }
  }
  // A subtype may not weaken an inherited property definition: same name
  // must keep the same value type.
  std::vector<PropertyDef> inherited;
  for (const std::string& super : def.supertypes) {
    collect_props_locked(super, inherited, 0);
  }
  for (const PropertyDef& own : def.properties) {
    for (const PropertyDef& base : inherited) {
      if (own.name == base.name && own.type != base.type && base.type != "any") {
        throw PropertyMismatch("property '" + own.name + "' of '" + def.name +
                               "' conflicts with supertype definition (" + own.type +
                               " vs " + base.type + ")");
      }
    }
  }
  types_[def.name] = std::move(def);
}

void ServiceTypeRepository::remove(const std::string& name) {
  std::scoped_lock lock(mu_);
  if (types_.count(name) == 0) throw UnknownServiceType("no such service type: " + name);
  for (const auto& [other_name, other] : types_) {
    if (std::find(other.supertypes.begin(), other.supertypes.end(), name) !=
        other.supertypes.end()) {
      throw TradingError("cannot remove '" + name + "': '" + other_name +
                         "' inherits from it");
    }
  }
  types_.erase(name);
}

bool ServiceTypeRepository::has(const std::string& name) const {
  std::scoped_lock lock(mu_);
  return types_.count(name) != 0;
}

std::optional<ServiceTypeDef> ServiceTypeRepository::find(const std::string& name) const {
  std::scoped_lock lock(mu_);
  const auto it = types_.find(name);
  if (it == types_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> ServiceTypeRepository::list() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(types_.size());
  for (const auto& [name, def] : types_) names.push_back(name);
  return names;
}

bool ServiceTypeRepository::is_subtype(const std::string& sub, const std::string& super) const {
  std::scoped_lock lock(mu_);
  return is_subtype_locked(sub, super, 0);
}

bool ServiceTypeRepository::is_subtype_locked(const std::string& sub, const std::string& super,
                                              int depth) const {
  if (depth > 32) return false;
  if (sub == super) return true;
  const auto it = types_.find(sub);
  if (it == types_.end()) return false;
  for (const std::string& parent : it->second.supertypes) {
    if (is_subtype_locked(parent, super, depth + 1)) return true;
  }
  return false;
}

std::vector<PropertyDef> ServiceTypeRepository::effective_properties(
    const std::string& name) const {
  std::scoped_lock lock(mu_);
  if (types_.count(name) == 0) throw UnknownServiceType("no such service type: " + name);
  std::vector<PropertyDef> out;
  collect_props_locked(name, out, 0);
  return out;
}

void ServiceTypeRepository::collect_props_locked(const std::string& name,
                                                 std::vector<PropertyDef>& out,
                                                 int depth) const {
  if (depth > 32) return;
  const auto it = types_.find(name);
  if (it == types_.end()) return;
  for (const std::string& parent : it->second.supertypes) {
    collect_props_locked(parent, out, depth + 1);
  }
  for (const PropertyDef& p : it->second.properties) {
    const auto existing = std::find_if(out.begin(), out.end(), [&](const PropertyDef& q) {
      return q.name == p.name;
    });
    if (existing != out.end()) {
      *existing = p;  // subtype definition refines the inherited one
    } else {
      out.push_back(p);
    }
  }
}

bool ServiceTypeRepository::value_matches_type(const Value& v, const std::string& type) {
  if (type.empty() || type == "any") return true;
  switch (v.type()) {
    case Value::Type::Bool: return type == "boolean";
    case Value::Type::Number: return type == "number";
    case Value::Type::String: return type == "string";
    case Value::Type::Table: return type == "table";
    case Value::Type::Object: return type == "object";
    default: return false;
  }
}

}  // namespace adapt::trading
