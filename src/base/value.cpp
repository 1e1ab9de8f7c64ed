#include "base/value.h"

#include <cmath>
#include <set>
#include <sstream>

namespace adapt {

namespace {

std::string number_to_string(double n) {
  if (std::isnan(n)) return "nan";
  if (std::isinf(n)) return n > 0 ? "inf" : "-inf";
  if (n == std::floor(n) && std::abs(n) < 1e15) {
    std::ostringstream os;
    os << static_cast<int64_t>(n);
    return os.str();
  }
  std::ostringstream os;
  os.precision(14);
  os << n;
  return os.str();
}

void render(const Value& v, std::ostringstream& os, std::set<const Table*>& seen);

void render_table(const Table& t, std::ostringstream& os, std::set<const Table*>& seen) {
  if (seen.count(&t) != 0) {
    os << "{...}";
    return;
  }
  seen.insert(&t);
  os << '{';
  bool first = true;
  for (const auto& [key, val] : t) {
    if (!first) os << ", ";
    first = false;
    const Value kv = key.to_value();
    if (key.is_string()) {
      os << key.as_string() << '=';
    } else {
      os << '[' << kv.str() << "]=";
    }
    render(val, os, seen);
  }
  os << '}';
  seen.erase(&t);
}

void render(const Value& v, std::ostringstream& os, std::set<const Table*>& seen) {
  switch (v.type()) {
    case Value::Type::Nil: os << "nil"; break;
    case Value::Type::Bool: os << (v.as_bool() ? "true" : "false"); break;
    case Value::Type::Number: os << number_to_string(v.as_number()); break;
    case Value::Type::String: os << v.as_string(); break;
    case Value::Type::Table: render_table(*v.as_table(), os, seen); break;
    case Value::Type::Function: os << v.as_function()->describe(); break;
    case Value::Type::Object: os << "object<" << v.as_object().str() << '>'; break;
  }
}

[[noreturn]] void type_mismatch(const Value& v, const char* wanted) {
  throw TypeError(std::string("expected ") + wanted + ", got " + v.type_name() +
                  " (" + v.str() + ")");
}

}  // namespace

const char* Value::type_name(Type t) {
  switch (t) {
    case Type::Nil: return "nil";
    case Type::Bool: return "boolean";
    case Type::Number: return "number";
    case Type::String: return "string";
    case Type::Table: return "table";
    case Type::Function: return "function";
    case Type::Object: return "object";
  }
  return "?";
}

const char* Value::type_name() const { return type_name(type()); }

bool Value::as_bool() const {
  if (!is_bool()) type_mismatch(*this, "boolean");
  return std::get<bool>(v_);
}

double Value::as_number() const {
  if (!is_number()) type_mismatch(*this, "number");
  return std::get<double>(v_);
}

int64_t Value::as_int() const {
  const double n = as_number();
  if (n != std::floor(n) || std::abs(n) > 9.007199254740992e15) {
    throw TypeError("expected integer, got " + str());
  }
  return static_cast<int64_t>(n);
}

const std::string& Value::as_string() const {
  if (!is_string()) type_mismatch(*this, "string");
  return std::get<std::string>(v_);
}

const TablePtr& Value::as_table() const {
  if (!is_table()) type_mismatch(*this, "table");
  return std::get<TablePtr>(v_);
}

const CallablePtr& Value::as_function() const {
  if (!is_function()) type_mismatch(*this, "function");
  return std::get<CallablePtr>(v_);
}

const ObjectRef& Value::as_object() const {
  if (!is_object()) type_mismatch(*this, "object");
  return std::get<ObjectRef>(v_);
}

bool Value::truthy() const {
  if (is_nil()) return false;
  if (is_bool()) return std::get<bool>(v_);
  return true;
}

std::string Value::str() const {
  std::ostringstream os;
  std::set<const Table*> seen;
  render(*this, os, seen);
  return os.str();
}

bool operator==(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case Value::Type::Nil: return true;
    case Value::Type::Bool: return a.as_bool() == b.as_bool();
    case Value::Type::Number: return a.as_number() == b.as_number();
    case Value::Type::String: return a.as_string() == b.as_string();
    case Value::Type::Table: return a.as_table() == b.as_table();
    case Value::Type::Function: return a.as_function() == b.as_function();
    case Value::Type::Object: return a.as_object() == b.as_object();
  }
  return false;
}

TableKey TableKey::from_value(const Value& v) {
  switch (v.type()) {
    case Value::Type::Bool:
      return TableKey(v.as_bool());
    case Value::Type::Number: {
      const double n = v.as_number();
      if (n == std::floor(n) && std::abs(n) < 9.007199254740992e15) {
        return TableKey(static_cast<int64_t>(n));
      }
      if (std::isnan(n)) throw TypeError("table key cannot be NaN");
      return TableKey(n);
    }
    case Value::Type::String:
      return TableKey(v.as_string());
    default:
      throw TypeError(std::string("invalid table key of type ") + v.type_name());
  }
}

TableKey TableKey::from_value(Value&& v) {
  if (auto* s = std::get_if<std::string>(&v.v_)) return TableKey(std::move(*s));
  return from_value(static_cast<const Value&>(v));
}

Value TableKey::to_value() const {
  if (std::holds_alternative<bool>(v_)) return Value(std::get<bool>(v_));
  if (std::holds_alternative<int64_t>(v_)) return Value(static_cast<double>(std::get<int64_t>(v_)));
  if (std::holds_alternative<double>(v_)) return Value(std::get<double>(v_));
  return Value(std::get<std::string>(v_));
}

Value Table::get(const Value& key) const {
  if (key.is_nil()) return {};
  const auto it = entries_.find(TableKey::from_value(key));
  return it == entries_.end() ? Value() : it->second;
}

Value Table::geti(int64_t index) const {
  const auto it = entries_.find(TableKey(index));
  return it == entries_.end() ? Value() : it->second;
}

void Table::set(const Value& key, Value v) { assign(TableKey::from_value(key), std::move(v)); }

void Table::set(Value&& key, Value v) {
  assign(TableKey::from_value(std::move(key)), std::move(v));
}

void Table::seti(int64_t index, Value v) { assign(TableKey(index), std::move(v)); }

void Table::assign(TableKey key, Value v) {
  if (v.is_nil()) {
    entries_.erase(key);
  } else {
    entries_.insert_or_assign(std::move(key), std::move(v));
  }
}

void Table::append(Value v) { seti(length() + 1, std::move(v)); }

int64_t Table::length() const {
  int64_t n = 0;
  while (entries_.count(TableKey(n + 1)) != 0) ++n;
  return n;
}

TablePtr Table::make_array(ValueList items) {
  auto t = std::make_shared<Table>();
  int64_t i = 1;
  for (auto& v : items) t->seti(i++, std::move(v));
  return t;
}

TablePtr Table::make() { return std::make_shared<Table>(); }

CallablePtr NativeFunction::make(std::string name,
                                 std::function<ValueList(const ValueList&)> fn) {
  return std::make_shared<NativeFunction>(
      std::move(name),
      [fn = std::move(fn)](CallContext&, const ValueList& args) { return fn(args); });
}

CallablePtr NativeFunction::make_ctx(std::string name, Fn fn) {
  return std::make_shared<NativeFunction>(std::move(name), std::move(fn));
}

}  // namespace adapt
