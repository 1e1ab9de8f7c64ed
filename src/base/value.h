// Value: the dynamically-typed value shared by the Luma interpreter and the
// ORB (the analog of the paper's Lua-value <-> CORBA-Any mapping).
//
// A Value is one of: nil, boolean, number (double), string, table
// (shared, mutable, Lua-style), function (script closure or native), or
// object reference (remote ORB object). Tables and functions have reference
// semantics; everything else has value semantics.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "base/error.h"
#include "base/object_ref.h"

namespace adapt {

class Table;
class Callable;
class Value;

using TablePtr = std::shared_ptr<Table>;
using CallablePtr = std::shared_ptr<Callable>;
using ValueList = std::vector<Value>;

/// Dynamically-typed value (see file comment).
class Value {
 public:
  enum class Type { Nil, Bool, Number, String, Table, Function, Object };

  Value() = default;  // nil
  Value(bool b) : v_(b) {}
  Value(double n) : v_(n) {}
  Value(int n) : v_(static_cast<double>(n)) {}
  Value(int64_t n) : v_(static_cast<double>(n)) {}
  Value(uint64_t n) : v_(static_cast<double>(n)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(std::string_view s) : v_(std::string(s)) {}
  Value(TablePtr t) : v_(std::move(t)) {}
  Value(CallablePtr f) : v_(std::move(f)) {}
  Value(ObjectRef r) : v_(std::move(r)) {}

  [[nodiscard]] Type type() const { return static_cast<Type>(v_.index()); }
  [[nodiscard]] const char* type_name() const;
  static const char* type_name(Type t);

  [[nodiscard]] bool is_nil() const { return type() == Type::Nil; }
  [[nodiscard]] bool is_bool() const { return type() == Type::Bool; }
  [[nodiscard]] bool is_number() const { return type() == Type::Number; }
  [[nodiscard]] bool is_string() const { return type() == Type::String; }
  [[nodiscard]] bool is_table() const { return type() == Type::Table; }
  [[nodiscard]] bool is_function() const { return type() == Type::Function; }
  [[nodiscard]] bool is_object() const { return type() == Type::Object; }

  // Strict accessors: throw adapt::TypeError on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// Number checked to be integral (within 2^53); throws otherwise.
  [[nodiscard]] int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const TablePtr& as_table() const;
  [[nodiscard]] const CallablePtr& as_function() const;
  [[nodiscard]] const ObjectRef& as_object() const;

  /// Lua truthiness: everything except nil and false is true.
  [[nodiscard]] bool truthy() const;

  /// Human/debug representation (Lua `tostring` analog); tables render
  /// recursively with cycle protection.
  [[nodiscard]] std::string str() const;

  /// Structural equality for scalars; identity for tables and functions
  /// (Lua raw-equality semantics). Object refs compare by endpoint+id.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

 private:
  friend class TableKey;  // moves a string value into a key
  std::variant<std::monostate, bool, double, std::string, TablePtr, CallablePtr, ObjectRef> v_;
};

/// Key type admitted by Table: boolean, integer, non-integral number or
/// string. Integral doubles are normalized to integers so `t[2]` and
/// `t[2.0]` address the same slot, as in Lua.
class TableKey {
 public:
  explicit TableKey(bool b) : v_(b) {}
  explicit TableKey(int64_t i) : v_(i) {}
  explicit TableKey(std::string s) : v_(std::move(s)) {}
  explicit TableKey(std::string_view s) : v_(std::string(s)) {}

  /// Converts a Value to a key; throws TypeError for nil/table/function keys.
  static TableKey from_value(const Value& v);
  /// Same, moving a string value's characters into the key.
  static TableKey from_value(Value&& v);

  [[nodiscard]] Value to_value() const;
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] int64_t as_int() const { return std::get<int64_t>(v_); }
  /// The key as a number: integer keys widen, non-integral ones as stored.
  [[nodiscard]] double as_number() const {
    return is_int() ? static_cast<double>(std::get<int64_t>(v_)) : std::get<double>(v_);
  }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(v_); }

  friend bool operator<(const TableKey& a, const TableKey& b) { return a.v_ < b.v_; }
  friend bool operator==(const TableKey& a, const TableKey& b) { return a.v_ == b.v_; }

 private:
  explicit TableKey(double d) : v_(d) {}
  std::variant<bool, int64_t, double, std::string> v_;
};

/// Lua-style associative table with reference semantics (always held via
/// TablePtr). Not internally synchronized; confine each table to one engine
/// or guard it externally (Core Guidelines CP.3).
class Table {
 public:
  Table() = default;

  [[nodiscard]] Value get(const Value& key) const;
  [[nodiscard]] Value geti(int64_t index) const;

  /// Setting a nil value erases the entry, as in Lua.
  void set(const Value& key, Value v);
  /// Same, moving a string key into the table instead of copying it.
  void set(Value&& key, Value v);
  void seti(int64_t index, Value v);

  /// Appends at index length()+1 (Lua table.insert analog).
  void append(Value v);

  /// Lua `#` operator: largest n such that keys 1..n are all present.
  [[nodiscard]] int64_t length() const;
  /// Total number of entries of any key type.
  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

  /// Convenience: builds a table from a list (1-based array part).
  static TablePtr make_array(ValueList items);
  static TablePtr make();

  /// Metatable (Lua 4 "tag methods" analog). The interpreter honors
  /// __index (table or function) on missing-key reads and __newindex
  /// (table or function) on absent-key writes. `get`/`set` here stay raw.
  [[nodiscard]] const TablePtr& metatable() const { return metatable_; }
  void set_metatable(TablePtr mt) { metatable_ = std::move(mt); }

 private:
  /// set/seti after key conversion: nil erases, anything else stores.
  void assign(TableKey key, Value v);

  std::map<TableKey, Value> entries_;
  TablePtr metatable_;
};

/// Execution context threaded through function calls. The script library
/// defines the concrete contents (it carries the interpreter); native
/// functions that do not call back into script code can ignore it.
struct CallContext;

/// Anything invokable from script or native code: script closures,
/// registered native functions, bound methods of wrapped C++ objects.
class Callable {
 public:
  virtual ~Callable() = default;
  Callable() = default;
  Callable(const Callable&) = delete;
  Callable& operator=(const Callable&) = delete;

  virtual ValueList call(CallContext& ctx, const ValueList& args) = 0;
  [[nodiscard]] virtual std::string describe() const { return "function"; }
};

/// Native (C++) function exposed to script code.
class NativeFunction : public Callable {
 public:
  using Fn = std::function<ValueList(CallContext&, const ValueList&)>;
  explicit NativeFunction(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  ValueList call(CallContext& ctx, const ValueList& args) override { return fn_(ctx, args); }
  [[nodiscard]] std::string describe() const override { return "native function " + name_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Wraps a context-free function.
  static CallablePtr make(std::string name, std::function<ValueList(const ValueList&)> fn);
  /// Wraps a context-using function.
  static CallablePtr make_ctx(std::string name, Fn fn);

 private:
  std::string name_;
  Fn fn_;
};

}  // namespace adapt
