// The OMG trader constraint language (CosTrading spec, appendix B) — the
// language in which smart proxies express nonfunctional requirements, e.g.
//
//   "LoadAvg < 50 and LoadAvgIncreasing == 'no'"        (paper SV)
//
// Supported grammar (standard TCL subset plus boolean literals):
//   expr     := or_expr
//   or_expr  := and_expr { "or" and_expr }
//   and_expr := not_expr { "and" not_expr }
//   not_expr := [ "not" ] rel_expr
//   rel_expr := add_expr [ (==|!=|<|<=|>|>=|~|in) add_expr ]
//   add_expr := mul_expr { (+|-) mul_expr }
//   mul_expr := unary { (*|/) unary }
//   unary    := [-] primary | "exist" ident
//   primary  := number | 'string' | TRUE | FALSE | ident | ( expr )
//
// `~` is the substring operator (lhs contained in rhs); `in` tests list
// membership (rhs is a sequence-valued property); `exist p` tests whether
// the offer defines property p.
//
// Evaluation follows OMG semantics for undefined properties: any
// subexpression that touches an undefined property makes the whole
// constraint FALSE for that offer (except under `exist`).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/value.h"
#include "trading/errors.h"

namespace adapt::trading {

/// Resolves a property name to its (possibly dynamic) value for one offer.
/// Returns nullopt when the offer does not define the property.
using PropertyLookup = std::function<std::optional<Value>(const std::string&)>;

/// Resolves a property by its *slot*: its index in the constraint's
/// referenced_properties(). Returns nullptr when the offer does not define
/// it; a returned value must stay alive until the evaluation returns. This
/// is the trader's allocation-free path; PropertyLookup adapts onto it.
class SlotLookup {
 public:
  virtual const Value* get(size_t slot) = 0;

 protected:
  ~SlotLookup() = default;
};

namespace detail {
struct CNode;
using CNodePtr = std::unique_ptr<CNode>;
}  // namespace detail

/// A parsed constraint expression; immutable and reusable across offers.
class Constraint {
 public:
  /// Parses `text`; empty/blank text matches everything.
  /// Throws IllegalConstraint on syntax errors.
  static Constraint parse(std::string_view text);

  Constraint(Constraint&&) noexcept;
  Constraint& operator=(Constraint&&) noexcept;
  ~Constraint();

  /// True when the constraint holds for the offer visible through `props`.
  /// Undefined properties and ill-typed operands make the result false,
  /// never an exception.
  [[nodiscard]] bool matches(const PropertyLookup& props) const;
  [[nodiscard]] bool matches(SlotLookup& props) const;

  /// Evaluates as an arithmetic expression (used by min/max preferences).
  /// Returns nullopt when evaluation touches an undefined property or the
  /// result is not a number.
  [[nodiscard]] std::optional<double> evaluate_numeric(const PropertyLookup& props) const;
  [[nodiscard]] std::optional<double> evaluate_numeric(SlotLookup& props) const;

  /// Property names referenced by the expression (`exist` included),
  /// sorted and distinct; a name's index here is its slot.
  [[nodiscard]] const std::vector<std::string>& referenced_properties() const {
    return slots_;
  }

  [[nodiscard]] const std::string& text() const { return text_; }
  [[nodiscard]] bool match_all() const { return root_ == nullptr; }

 private:
  Constraint() = default;
  std::string text_;
  detail::CNodePtr root_;
  std::vector<std::string> slots_;
};

/// Preference: how matched offers are ordered (OMG CosTrading preferences).
///   "min <expr>" | "max <expr>" | "with <constraint>" | "random" | "first"
/// Empty text means "first" (registration order).
class Preference {
 public:
  enum class Kind { First, Min, Max, With, Random };

  static Preference parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const Constraint& expr() const { return expr_; }
  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  Kind kind_ = Kind::First;
  std::string text_;
  Constraint expr_ = Constraint::parse("");
};

/// A bounded, thread-safe cache of parsed constraints and preferences,
/// keyed by their source text. Proxies re-issue the same few queries, so a
/// hit skips the parse. Text that fails to parse is never cached: every
/// call with it throws again. At capacity the least recently used entry of
/// that kind goes.
class ParseCache {
 public:
  static constexpr size_t kCapacity = 64;

  /// Throws IllegalConstraint like Constraint::parse.
  std::shared_ptr<const Constraint> constraint(const std::string& text);
  /// Throws IllegalPreference like Preference::parse.
  std::shared_ptr<const Preference> preference(const std::string& text);

 private:
  template <class T>
  struct Shelf {
    struct Entry {
      std::shared_ptr<const T> parsed;
      uint64_t last_use = 0;
    };
    std::unordered_map<std::string, Entry> entries;
  };
  template <class T>
  std::shared_ptr<const T> get(Shelf<T>& shelf, const std::string& text);

  std::mutex mu_;
  uint64_t tick_ = 0;
  Shelf<Constraint> constraints_;
  Shelf<Preference> preferences_;
};

}  // namespace adapt::trading
