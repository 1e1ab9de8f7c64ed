#include "trading/constraint.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <set>

namespace adapt::trading {

namespace detail {

enum class COp {
  // leaves
  Number, String, Bool, Property, Exist,
  // boolean
  Or, And, Not,
  // relational
  Eq, Ne, Lt, Le, Gt, Ge, Substr, In,
  // arithmetic
  Add, Sub, Mul, Div, Neg,
};

struct CNode {
  COp op;
  double number = 0;
  std::string text;  // string literal or property name
  size_t slot = 0;   // property name's index in Constraint::slots_
  CNodePtr lhs;
  CNodePtr rhs;
};

namespace {

// ---- lexer -----------------------------------------------------------

struct CTok {
  enum Kind { End, Num, Str, Ident, Op } kind = End;
  std::string text;
  double number = 0;
};

class CLexer {
 public:
  explicit CLexer(std::string_view text) : text_(text) { next(); }

  const CTok& cur() const { return cur_; }

  void next() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ >= text_.size()) {
      cur_ = CTok{CTok::End, "", 0};
      return;
    }
    const char c = text_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
              text_[pos_] == 'e' || text_[pos_] == 'E' ||
              ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
               (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
        ++pos_;
      }
      const std::string num(text_.substr(start, pos_ - start));
      cur_ = CTok{CTok::Num, num, std::strtod(num.c_str(), nullptr)};
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_' ||
              text_[pos_] == '.')) {
        ++pos_;
      }
      cur_ = CTok{CTok::Ident, std::string(text_.substr(start, pos_ - start)), 0};
      return;
    }
    if (c == '\'') {
      ++pos_;
      std::string s;
      while (pos_ < text_.size() && text_[pos_] != '\'') s += text_[pos_++];
      if (pos_ >= text_.size()) throw IllegalConstraint("unterminated string literal");
      ++pos_;
      cur_ = CTok{CTok::Str, std::move(s), 0};
      return;
    }
    // operators
    auto two = [&](char a, char b) {
      return c == a && pos_ + 1 < text_.size() && text_[pos_ + 1] == b;
    };
    if (two('=', '=') || two('!', '=') || two('<', '=') || two('>', '=')) {
      cur_ = CTok{CTok::Op, std::string(text_.substr(pos_, 2)), 0};
      pos_ += 2;
      return;
    }
    if (std::string("<>+-*/()~").find(c) != std::string::npos) {
      cur_ = CTok{CTok::Op, std::string(1, c), 0};
      ++pos_;
      return;
    }
    throw IllegalConstraint(std::string("unexpected character '") + c + "' in constraint");
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  CTok cur_;
};

// ---- parser ------------------------------------------------------------

CNodePtr make_node(COp op) {
  auto n = std::make_unique<CNode>();
  n->op = op;
  return n;
}

class CParser {
 public:
  explicit CParser(std::string_view text) : lex_(text) {}

  CNodePtr parse() {
    CNodePtr e = parse_or();
    if (lex_.cur().kind != CTok::End) {
      throw IllegalConstraint("trailing input after constraint: '" + lex_.cur().text + "'");
    }
    return e;
  }

 private:
  void enter() {
    if (++depth_ > 200) throw IllegalConstraint("constraint nesting too deep");
  }

  bool accept_op(const std::string& op) {
    if (lex_.cur().kind == CTok::Op && lex_.cur().text == op) {
      lex_.next();
      return true;
    }
    return false;
  }

  bool accept_keyword(const std::string& kw) {
    if (lex_.cur().kind == CTok::Ident && lex_.cur().text == kw) {
      lex_.next();
      return true;
    }
    return false;
  }

  CNodePtr parse_or() {
    CNodePtr lhs = parse_and();
    while (accept_keyword("or")) {
      auto n = make_node(COp::Or);
      n->lhs = std::move(lhs);
      n->rhs = parse_and();
      lhs = std::move(n);
    }
    return lhs;
  }

  CNodePtr parse_and() {
    CNodePtr lhs = parse_not();
    while (accept_keyword("and")) {
      auto n = make_node(COp::And);
      n->lhs = std::move(lhs);
      n->rhs = parse_not();
      lhs = std::move(n);
    }
    return lhs;
  }

  CNodePtr parse_not() {
    enter();
    if (accept_keyword("not")) {
      auto n = make_node(COp::Not);
      n->lhs = parse_not();
      --depth_;
      return n;
    }
    CNodePtr e = parse_rel();
    --depth_;
    return e;
  }

  CNodePtr parse_rel() {
    CNodePtr lhs = parse_add();
    COp op;
    if (accept_op("==")) {
      op = COp::Eq;
    } else if (accept_op("!=")) {
      op = COp::Ne;
    } else if (accept_op("<=")) {
      op = COp::Le;
    } else if (accept_op(">=")) {
      op = COp::Ge;
    } else if (accept_op("<")) {
      op = COp::Lt;
    } else if (accept_op(">")) {
      op = COp::Gt;
    } else if (accept_op("~")) {
      op = COp::Substr;
    } else if (accept_keyword("in")) {
      op = COp::In;
    } else {
      return lhs;
    }
    auto n = make_node(op);
    n->lhs = std::move(lhs);
    n->rhs = parse_add();
    return n;
  }

  CNodePtr parse_add() {
    CNodePtr lhs = parse_mul();
    for (;;) {
      COp op;
      if (accept_op("+")) {
        op = COp::Add;
      } else if (accept_op("-")) {
        op = COp::Sub;
      } else {
        return lhs;
      }
      auto n = make_node(op);
      n->lhs = std::move(lhs);
      n->rhs = parse_mul();
      lhs = std::move(n);
    }
  }

  CNodePtr parse_mul() {
    CNodePtr lhs = parse_unary();
    for (;;) {
      COp op;
      if (accept_op("*")) {
        op = COp::Mul;
      } else if (accept_op("/")) {
        op = COp::Div;
      } else {
        return lhs;
      }
      auto n = make_node(op);
      n->lhs = std::move(lhs);
      n->rhs = parse_unary();
      lhs = std::move(n);
    }
  }

  CNodePtr parse_unary() {
    if (accept_op("-")) {
      enter();
      auto n = make_node(COp::Neg);
      n->lhs = parse_unary();
      --depth_;
      return n;
    }
    if (accept_keyword("exist")) {
      if (lex_.cur().kind != CTok::Ident) {
        throw IllegalConstraint("'exist' must be followed by a property name");
      }
      auto n = make_node(COp::Exist);
      n->text = lex_.cur().text;
      lex_.next();
      return n;
    }
    return parse_primary();
  }

  CNodePtr parse_primary() {
    const CTok& t = lex_.cur();
    switch (t.kind) {
      case CTok::Num: {
        auto n = make_node(COp::Number);
        n->number = t.number;
        lex_.next();
        return n;
      }
      case CTok::Str: {
        auto n = make_node(COp::String);
        n->text = t.text;
        lex_.next();
        return n;
      }
      case CTok::Ident: {
        if (t.text == "TRUE" || t.text == "FALSE") {
          auto n = make_node(COp::Bool);
          n->number = t.text == "TRUE" ? 1 : 0;
          lex_.next();
          return n;
        }
        if (t.text == "and" || t.text == "or" || t.text == "not" || t.text == "in" ||
            t.text == "exist") {
          throw IllegalConstraint("unexpected keyword '" + t.text + "'");
        }
        auto n = make_node(COp::Property);
        n->text = t.text;
        lex_.next();
        return n;
      }
      case CTok::Op:
        if (t.text == "(") {
          lex_.next();
          CNodePtr inner = parse_or();
          if (!accept_op(")")) throw IllegalConstraint("missing ')'");
          return inner;
        }
        throw IllegalConstraint("unexpected operator '" + t.text + "'");
      case CTok::End:
        throw IllegalConstraint("unexpected end of constraint");
    }
    throw IllegalConstraint("unexpected token");
  }

  CLexer lex_;
  int depth_ = 0;
};

// ---- evaluator ------------------------------------------------------------

/// An evaluation result that borrows instead of owning: strings and tables
/// point into the tree or into values the SlotLookup keeps alive, so
/// evaluating allocates nothing. `Error` is absorbing: an undefined property
/// or an ill-typed operand anywhere makes the whole expression fail for that
/// offer (OMG semantics), and nothing after it is evaluated.
struct Eval {
  enum class Type : uint8_t { Error, Bool, Number, String, Table, Other };
  Type type = Type::Error;
  bool boolean = false;
  double number = 0;
  const std::string* string = nullptr;
  const Table* table = nullptr;

  [[nodiscard]] bool failed() const { return type == Type::Error; }
};

constexpr Eval kError{};

Eval of_bool(bool b) { return Eval{Eval::Type::Bool, b}; }
Eval of_number(double n) { return Eval{Eval::Type::Number, false, n}; }

Eval of_value(const Value* v) {
  if (v == nullptr) return kError;  // undefined property
  switch (v->type()) {
    case Value::Type::Bool: return of_bool(v->as_bool());
    case Value::Type::Number: return of_number(v->as_number());
    case Value::Type::String: return Eval{Eval::Type::String, false, 0, &v->as_string()};
    case Value::Type::Table:
      return Eval{Eval::Type::Table, false, 0, nullptr, v->as_table().get()};
    default: return Eval{Eval::Type::Other};
  }
}

enum class RelKind { Eq, Ne, Lt, Le, Gt, Ge };

/// Relational semantics: numbers follow IEEE-754 (all orderings and == are
/// false against NaN; != is true), strings compare lexicographically,
/// booleans as false < true. Mixed types: == false, != true, orderings are
/// a type error (constraint fails for that offer).
Eval compare_rel(RelKind op, const Eval& a, const Eval& b) {
  using T = Eval::Type;
  if (a.type == T::Number && b.type == T::Number) {
    const double x = a.number;
    const double y = b.number;
    switch (op) {
      case RelKind::Eq: return of_bool(x == y);
      case RelKind::Ne: return of_bool(x != y);
      case RelKind::Lt: return of_bool(x < y);
      case RelKind::Le: return of_bool(x <= y);
      case RelKind::Gt: return of_bool(x > y);
      case RelKind::Ge: return of_bool(x >= y);
    }
  }
  int cmp;
  if (a.type == T::String && b.type == T::String) {
    cmp = a.string->compare(*b.string);
  } else if (a.type == T::Bool && b.type == T::Bool) {
    cmp = static_cast<int>(a.boolean) - static_cast<int>(b.boolean);
  } else {
    if (op == RelKind::Eq) return of_bool(false);
    if (op == RelKind::Ne) return of_bool(true);
    return kError;
  }
  switch (op) {
    case RelKind::Eq: return of_bool(cmp == 0);
    case RelKind::Ne: return of_bool(cmp != 0);
    case RelKind::Lt: return of_bool(cmp < 0);
    case RelKind::Le: return of_bool(cmp <= 0);
    case RelKind::Gt: return of_bool(cmp > 0);
    case RelKind::Ge: return of_bool(cmp >= 0);
  }
  return kError;
}

RelKind rel_kind(COp op) {
  switch (op) {
    case COp::Eq: return RelKind::Eq;
    case COp::Ne: return RelKind::Ne;
    case COp::Lt: return RelKind::Lt;
    case COp::Le: return RelKind::Le;
    case COp::Gt: return RelKind::Gt;
    default: return RelKind::Ge;
  }
}

Eval eval_node(const CNode& n, SlotLookup& props);

/// Evaluates `n` and requires a boolean; anything else is an error.
Eval eval_bool(const CNode& n, SlotLookup& props) {
  const Eval v = eval_node(n, props);
  return v.type == Eval::Type::Bool ? v : kError;
}

/// Evaluates `n` and requires a number; anything else is an error.
Eval eval_num(const CNode& n, SlotLookup& props) {
  const Eval v = eval_node(n, props);
  return v.type == Eval::Type::Number ? v : kError;
}

Eval arithmetic(const CNode& n, SlotLookup& props) {
  const Eval a = eval_num(*n.lhs, props);
  if (a.failed()) return kError;
  const Eval b = eval_num(*n.rhs, props);
  if (b.failed()) return kError;
  switch (n.op) {
    case COp::Add: return of_number(a.number + b.number);
    case COp::Sub: return of_number(a.number - b.number);
    case COp::Mul: return of_number(a.number * b.number);
    default: return of_number(a.number / b.number);
  }
}

Eval eval_node(const CNode& n, SlotLookup& props) {
  switch (n.op) {
    case COp::Number: return of_number(n.number);
    case COp::String: return Eval{Eval::Type::String, false, 0, &n.text};
    case COp::Bool: return of_bool(n.number != 0);
    case COp::Property: return of_value(props.get(n.slot));
    case COp::Exist: return of_bool(props.get(n.slot) != nullptr);
    case COp::Or: {
      // OMG semantics: an undefined property anywhere fails the whole
      // constraint, so both sides evaluate strictly — but short-circuit on a
      // defined true lhs is still sound and avoids dynamic-property calls.
      const Eval lhs = eval_bool(*n.lhs, props);
      if (lhs.failed() || lhs.boolean) return lhs;
      return eval_bool(*n.rhs, props);
    }
    case COp::And: {
      const Eval lhs = eval_bool(*n.lhs, props);
      if (lhs.failed() || !lhs.boolean) return lhs;
      return eval_bool(*n.rhs, props);
    }
    case COp::Not: {
      const Eval v = eval_bool(*n.lhs, props);
      return v.failed() ? v : of_bool(!v.boolean);
    }
    case COp::Eq:
    case COp::Ne:
    case COp::Lt:
    case COp::Le:
    case COp::Gt:
    case COp::Ge: {
      const Eval a = eval_node(*n.lhs, props);
      if (a.failed()) return kError;
      const Eval b = eval_node(*n.rhs, props);
      if (b.failed()) return kError;
      return compare_rel(rel_kind(n.op), a, b);
    }
    case COp::Substr: {
      const Eval a = eval_node(*n.lhs, props);
      if (a.failed()) return kError;
      const Eval b = eval_node(*n.rhs, props);
      if (a.type != Eval::Type::String || b.type != Eval::Type::String) return kError;
      return of_bool(b.string->find(*a.string) != std::string::npos);
    }
    case COp::In: {
      const Eval item = eval_node(*n.lhs, props);
      if (item.failed()) return kError;
      const Eval seq = eval_node(*n.rhs, props);
      if (seq.type != Eval::Type::Table) return kError;
      // The sequence part of the table: integer keys 1..length().
      const int64_t length = seq.table->length();
      for (const auto& [key, element] : *seq.table) {
        if (!key.is_int() || key.as_int() < 1 || key.as_int() > length) continue;
        const Eval e = compare_rel(RelKind::Eq, of_value(&element), item);
        if (e.boolean) return of_bool(true);
      }
      return of_bool(false);
    }
    case COp::Add:
    case COp::Sub:
    case COp::Mul:
    case COp::Div: return arithmetic(n, props);
    case COp::Neg: {
      const Eval v = eval_num(*n.lhs, props);
      return v.failed() ? v : of_number(-v.number);
    }
  }
  return kError;
}

/// Adapts a name-keyed PropertyLookup onto slots; each name is looked up at
/// most once per evaluation. Small expressions keep their values inline.
class NamedSlots final : public SlotLookup {
 public:
  NamedSlots(const std::vector<std::string>& names, const PropertyLookup& lookup)
      : names_(names), lookup_(lookup) {
    if (names.size() > kInline) spill_.resize(names.size());
  }

  const Value* get(size_t slot) override {
    Looked& l = names_.size() > kInline ? spill_[slot] : inline_[slot];
    if (!l.done) {
      l.value = lookup_(names_[slot]);
      l.done = true;
    }
    return l.value ? &*l.value : nullptr;
  }

 private:
  static constexpr size_t kInline = 4;
  struct Looked {
    bool done = false;
    std::optional<Value> value;
  };
  const std::vector<std::string>& names_;
  const PropertyLookup& lookup_;
  std::array<Looked, kInline> inline_;
  std::vector<Looked> spill_;
};

void collect_properties(const CNode& n, std::set<std::string>& out) {
  if (n.op == COp::Property || n.op == COp::Exist) out.insert(n.text);
  if (n.lhs) collect_properties(*n.lhs, out);
  if (n.rhs) collect_properties(*n.rhs, out);
}

void assign_slots(CNode& n, const std::vector<std::string>& slots) {
  if (n.op == COp::Property || n.op == COp::Exist) {
    n.slot = static_cast<size_t>(std::lower_bound(slots.begin(), slots.end(), n.text) -
                                 slots.begin());
  }
  if (n.lhs) assign_slots(*n.lhs, slots);
  if (n.rhs) assign_slots(*n.rhs, slots);
}

bool is_blank(std::string_view text) {
  for (const char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace
}  // namespace detail

Constraint::Constraint(Constraint&&) noexcept = default;
Constraint& Constraint::operator=(Constraint&&) noexcept = default;
Constraint::~Constraint() = default;

Constraint Constraint::parse(std::string_view text) {
  Constraint c;
  c.text_ = std::string(text);
  if (!detail::is_blank(text)) {
    c.root_ = detail::CParser(text).parse();
    std::set<std::string> names;
    detail::collect_properties(*c.root_, names);
    c.slots_.assign(names.begin(), names.end());
    detail::assign_slots(*c.root_, c.slots_);
  }
  return c;
}

bool Constraint::matches(SlotLookup& props) const {
  if (!root_) return true;
  const detail::Eval v = detail::eval_bool(*root_, props);
  return !v.failed() && v.boolean;  // OMG: undefined or ill-typed => no match
}

bool Constraint::matches(const PropertyLookup& props) const {
  detail::NamedSlots slots(slots_, props);
  return matches(slots);
}

std::optional<double> Constraint::evaluate_numeric(SlotLookup& props) const {
  if (!root_) return std::nullopt;
  const detail::Eval v = detail::eval_node(*root_, props);
  if (v.type == detail::Eval::Type::Number) return v.number;
  if (v.type == detail::Eval::Type::Bool) return v.boolean ? 1.0 : 0.0;
  return std::nullopt;
}

std::optional<double> Constraint::evaluate_numeric(const PropertyLookup& props) const {
  detail::NamedSlots slots(slots_, props);
  return evaluate_numeric(slots);
}

Preference Preference::parse(std::string_view text) {
  Preference p;
  p.text_ = std::string(text);
  // trim
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  const std::string_view body = text.substr(begin, end - begin);
  if (body.empty() || body == "first") {
    p.kind_ = Kind::First;
    return p;
  }
  if (body == "random") {
    p.kind_ = Kind::Random;
    return p;
  }
  auto starts_with = [&](std::string_view kw) {
    return body.size() > kw.size() && body.substr(0, kw.size()) == kw &&
           std::isspace(static_cast<unsigned char>(body[kw.size()]));
  };
  try {
    if (starts_with("min")) {
      p.kind_ = Kind::Min;
      p.expr_ = Constraint::parse(body.substr(3));
      return p;
    }
    if (starts_with("max")) {
      p.kind_ = Kind::Max;
      p.expr_ = Constraint::parse(body.substr(3));
      return p;
    }
    if (starts_with("with")) {
      p.kind_ = Kind::With;
      p.expr_ = Constraint::parse(body.substr(4));
      return p;
    }
  } catch (const IllegalConstraint& e) {
    throw IllegalPreference(std::string("bad preference expression: ") + e.what());
  }
  throw IllegalPreference("unknown preference: '" + std::string(body) + "'");
}

// ---- ParseCache --------------------------------------------------------------

template <class T>
std::shared_ptr<const T> ParseCache::get(Shelf<T>& shelf, const std::string& text) {
  {
    std::scoped_lock lock(mu_);
    if (const auto it = shelf.entries.find(text); it != shelf.entries.end()) {
      it->second.last_use = ++tick_;
      return it->second.parsed;
    }
  }
  // Parse outside the lock; a syntax error throws before anything is cached.
  auto parsed = std::make_shared<const T>(T::parse(text));
  std::scoped_lock lock(mu_);
  if (shelf.entries.size() >= kCapacity && shelf.entries.count(text) == 0) {
    const auto lru = std::min_element(
        shelf.entries.begin(), shelf.entries.end(),
        [](const auto& a, const auto& b) { return a.second.last_use < b.second.last_use; });
    shelf.entries.erase(lru);
  }
  auto& entry = shelf.entries[text];
  if (!entry.parsed) entry.parsed = std::move(parsed);
  entry.last_use = ++tick_;
  return entry.parsed;
}

std::shared_ptr<const Constraint> ParseCache::constraint(const std::string& text) {
  return get(constraints_, text);
}

std::shared_ptr<const Preference> ParseCache::preference(const std::string& text) {
  return get(preferences_, text);
}

}  // namespace adapt::trading
