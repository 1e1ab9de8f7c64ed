// Property-based tests: randomly generated programs/expressions evaluated
// against independently computed oracles.
//
//  * constraint language: random boolean/arithmetic trees — parse(render(t))
//    must evaluate to the oracle value, including OMG undefined-property
//    semantics;
//  * Luma: random arithmetic expressions and random table programs match
//    C++ oracles;
//  * wire format: random value roundtrip lives in orb_wire_test.cpp; here
//    orb::wire_copy (the collocated call's copy) must equal the codec round
//    trip on random values and throw exactly when the encoder throws.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <sstream>

#include "orb/wire.h"
#include "script/engine.h"
#include "trading/constraint.h"

namespace adapt {
namespace {

// ---- constraint-language PBT ---------------------------------------------

struct NumExpr {
  std::string text;
  std::optional<double> value;  // nullopt = touched an undefined property
};

struct BoolExpr {
  std::string text;
  std::optional<bool> value;
};

class ConstraintGen {
 public:
  explicit ConstraintGen(uint32_t seed) : rng_(seed) {
    props_["LoadAvg"] = 35.0;
    props_["Rank"] = 7.0;
    props_["Zero"] = 0.0;
    props_["Negative"] = -12.5;
  }

  trading::PropertyLookup lookup() const {
    return [this](const std::string& name) -> std::optional<Value> {
      const auto it = props_.find(name);
      if (it == props_.end()) return std::nullopt;
      return Value(it->second);
    };
  }

  NumExpr gen_num(int depth) {
    switch (pick(depth <= 0 ? 2 : 4)) {
      case 0: {  // literal
        const double v = literal();
        return {render(v), v};
      }
      case 1: {  // property (sometimes undefined)
        if (pick(4) == 0) return {"Missing", std::nullopt};
        auto it = props_.begin();
        std::advance(it, pick(static_cast<int>(props_.size())));
        return {it->first, it->second};
      }
      case 2: {  // unary minus
        NumExpr inner = gen_num(depth - 1);
        return {"-(" + inner.text + ")",
                inner.value ? std::optional<double>(-*inner.value) : std::nullopt};
      }
      default: {  // binary arithmetic
        NumExpr a = gen_num(depth - 1);
        NumExpr b = gen_num(depth - 1);
        const char* ops[] = {"+", "-", "*", "/"};
        const int op = pick(4);
        std::optional<double> v;
        if (a.value && b.value) {
          switch (op) {
            case 0: v = *a.value + *b.value; break;
            case 1: v = *a.value - *b.value; break;
            case 2: v = *a.value * *b.value; break;
            default: v = *a.value / *b.value; break;
          }
        }
        return {"(" + a.text + " " + ops[op] + " " + b.text + ")", v};
      }
    }
  }

  BoolExpr gen_bool(int depth) {
    switch (pick(depth <= 0 ? 2 : 5)) {
      case 0:
        return {pick(2) == 0 ? "TRUE" : "FALSE", pick_last_ == 0};
      case 1: {  // exist
        const bool defined = pick(2) == 0;
        return {std::string("exist ") + (defined ? "LoadAvg" : "Missing"), defined};
      }
      case 2: {  // comparison
        NumExpr a = gen_num(depth - 1);
        NumExpr b = gen_num(depth - 1);
        const char* ops[] = {"==", "!=", "<", "<=", ">", ">="};
        const int op = pick(6);
        std::optional<bool> v;
        if (a.value && b.value) {
          switch (op) {
            case 0: v = *a.value == *b.value; break;
            case 1: v = *a.value != *b.value; break;
            case 2: v = *a.value < *b.value; break;
            case 3: v = *a.value <= *b.value; break;
            case 4: v = *a.value > *b.value; break;
            default: v = *a.value >= *b.value; break;
          }
        }
        return {"(" + a.text + " " + ops[op] + " " + b.text + ")", v};
      }
      case 3: {  // not
        BoolExpr inner = gen_bool(depth - 1);
        return {"not (" + inner.text + ")",
                inner.value ? std::optional<bool>(!*inner.value) : std::nullopt};
      }
      default: {  // and / or with OMG undefined semantics + short-circuit
        BoolExpr a = gen_bool(depth - 1);
        BoolExpr b = gen_bool(depth - 1);
        const bool is_and = pick(2) == 0;
        std::optional<bool> v;
        if (is_and) {
          // undefined anywhere -> undefined, except a defined-false lhs
          // short-circuits to false.
          if (a.value && !*a.value) {
            v = false;
          } else if (a.value && b.value) {
            v = *a.value && *b.value;
          }
        } else {
          if (a.value && *a.value) {
            v = true;
          } else if (a.value && b.value) {
            v = *a.value || *b.value;
          }
        }
        return {"(" + a.text + (is_and ? " and " : " or ") + b.text + ")", v};
      }
    }
  }

 private:
  int pick(int n) { return pick_last_ = static_cast<int>(rng_() % static_cast<uint32_t>(n)); }
  double literal() {
    // small integers and halves keep comparisons exact
    return static_cast<double>(static_cast<int>(rng_() % 41) - 20) / 2.0;
  }
  static std::string render(double v) {
    std::ostringstream os;
    if (v < 0) {
      os << "(-" << -v << ")";
    } else {
      os << v;
    }
    return os.str();
  }

  std::mt19937 rng_;
  std::map<std::string, double> props_;
  int pick_last_ = 0;
};

TEST(ConstraintPropertyTest, RandomBooleanTreesMatchOracle) {
  // Oracle nullopt (undefined touched) must evaluate to "no match".
  for (uint32_t seed = 1; seed <= 400; ++seed) {
    ConstraintGen gen(seed);
    const BoolExpr expr = gen.gen_bool(4);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + expr.text);
    const trading::Constraint c = trading::Constraint::parse(expr.text);
    const bool expected = expr.value.value_or(false);
    EXPECT_EQ(c.matches(gen.lookup()), expected);
  }
}

TEST(ConstraintPropertyTest, RandomNumericTreesMatchOracle) {
  for (uint32_t seed = 1; seed <= 400; ++seed) {
    ConstraintGen gen(seed + 10000);
    const NumExpr expr = gen.gen_num(4);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + expr.text);
    const trading::Constraint c = trading::Constraint::parse(expr.text);
    const auto got = c.evaluate_numeric(gen.lookup());
    if (!expr.value || std::isnan(*expr.value)) {
      if (got) {
        EXPECT_TRUE(std::isnan(*got)) << *got;
      }
    } else {
      ASSERT_TRUE(got.has_value());
      if (std::isinf(*expr.value)) {
        EXPECT_EQ(*got, *expr.value);
      } else {
        EXPECT_NEAR(*got, *expr.value, std::abs(*expr.value) * 1e-9 + 1e-9);
      }
    }
  }
}

// ---- Luma arithmetic PBT ------------------------------------------------

struct LumaExpr {
  std::string text;
  double value;
};

class LumaGen {
 public:
  explicit LumaGen(uint32_t seed) : rng_(seed) {}

  LumaExpr gen(int depth) {
    if (depth <= 0 || pick(3) == 0) {
      const double v = static_cast<double>(static_cast<int>(rng_() % 19) + 1);
      std::ostringstream os;
      os << v;
      return {os.str(), v};
    }
    LumaExpr a = gen(depth - 1);
    LumaExpr b = gen(depth - 1);
    switch (pick(4)) {
      case 0: return {"(" + a.text + " + " + b.text + ")", a.value + b.value};
      case 1: return {"(" + a.text + " - " + b.text + ")", a.value - b.value};
      case 2: return {"(" + a.text + " * " + b.text + ")", a.value * b.value};
      default: return {"(" + a.text + " / " + b.text + ")", a.value / b.value};
    }
  }

 private:
  int pick(int n) { return static_cast<int>(rng_() % static_cast<uint32_t>(n)); }
  std::mt19937 rng_;
};

TEST(LumaPropertyTest, RandomArithmeticMatchesNative) {
  script::ScriptEngine eng;
  for (uint32_t seed = 1; seed <= 300; ++seed) {
    LumaGen gen(seed);
    const LumaExpr expr = gen.gen(5);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + expr.text);
    const Value got = eng.eval1("return " + expr.text);
    if (std::isnan(expr.value)) {
      EXPECT_TRUE(std::isnan(got.as_number()));
    } else if (std::isinf(expr.value)) {
      EXPECT_EQ(got.as_number(), expr.value);
    } else {
      EXPECT_NEAR(got.as_number(), expr.value, std::abs(expr.value) * 1e-12 + 1e-12);
    }
  }
}

TEST(LumaPropertyTest, RandomTableProgramsPreserveSum) {
  // Build a random array, then shuffle it with random inserts/removes that
  // preserve the multiset; Luma's computed sum must equal the oracle's.
  std::mt19937 rng(7);
  script::ScriptEngine eng;
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 20);
    double expected = 0;
    std::ostringstream code;
    code << "local t = {} ";
    for (int i = 0; i < n; ++i) {
      const int v = static_cast<int>(rng() % 100);
      expected += v;
      if (rng() % 2 == 0) {
        code << "table.insert(t, " << v << ") ";
      } else {
        code << "table.insert(t, 1, " << v << ") ";
      }
    }
    // A few rotations: remove from one end, insert at the other.
    for (int i = 0; i < 5; ++i) {
      code << "local x = table.remove(t, 1) table.insert(t, x) ";
    }
    code << "local s = 0 for i, v in ipairs(t) do s = s + v end return s, #t";
    ValueList out = eng.eval(code.str());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0].as_number(), expected) << code.str();
    EXPECT_DOUBLE_EQ(out[1].as_number(), n);
  }
}

TEST(LumaPropertyTest, RandomTokenSoupNeverCrashes) {
  // Robustness property: arbitrary token sequences either parse+run or
  // raise a typed adapt error — never crash, hang, or leak past pcall.
  const char* tokens[] = {"if", "then", "else", "end", "while", "do", "function",
                          "local", "return", "break", "for", "in", "repeat", "until",
                          "and", "or", "not", "nil", "true", "false",
                          "x", "y", "print", "1", "2.5", "'s'", "\"t\"",
                          "+", "-", "*", "/", "%", "==", "~=", "<", ">", "<=", ">=",
                          "=", "(", ")", "{", "}", "[", "]", ",", ";", ":", ".", "..",
                          "...", "#"};
  std::mt19937 rng(1234);
  script::ScriptEngine eng;
  int parsed_ok = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const int len = 1 + static_cast<int>(rng() % 24);
    std::string program;
    for (int i = 0; i < len; ++i) {
      program += tokens[rng() % std::size(tokens)];
      program += ' ';
    }
    // Bias ~1/8 of trials toward valid prefixes so some soups do run.
    if (trial % 8 == 0) program = "x = 1 " + program;
    try {
      eng.eval(program, "fuzz");
      ++parsed_ok;
    } catch (const Error&) {
      // expected for most soups
    }
  }
  // The engine survived 500 soups; that's the property under test. The
  // parsed_ok counter only documents that some inputs were valid.
  EXPECT_GE(parsed_ok, 0);
}

TEST(ConstraintPropertyTest, RandomConstraintSoupNeverCrashes) {
  const char* tokens[] = {"and", "or", "not", "exist", "in", "TRUE", "FALSE",
                          "LoadAvg", "Missing", "1", "2.5", "'s'",
                          "+", "-", "*", "/", "==", "!=", "<", ">", "<=", ">=",
                          "~", "(", ")"};
  std::mt19937 rng(77);
  auto props = [](const std::string& name) -> std::optional<Value> {
    if (name == "LoadAvg") return Value(10.0);
    return std::nullopt;
  };
  for (int trial = 0; trial < 500; ++trial) {
    const int len = 1 + static_cast<int>(rng() % 16);
    std::string text;
    for (int i = 0; i < len; ++i) {
      text += tokens[rng() % std::size(tokens)];
      text += ' ';
    }
    try {
      const trading::Constraint c = trading::Constraint::parse(text);
      (void)c.matches(props);
      (void)c.evaluate_numeric(props);
    } catch (const trading::IllegalConstraint&) {
      // expected for most soups
    }
  }
  SUCCEED();
}

TEST(LumaPropertyTest, SortProducesOrderedPermutation) {
  std::mt19937 rng(21);
  script::ScriptEngine eng;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 30);
    std::ostringstream code;
    double sum = 0;
    code << "local t = {";
    for (int i = 0; i < n; ++i) {
      const int v = static_cast<int>(rng() % 1000);
      sum += v;
      code << v << ",";
    }
    code << "} table.sort(t) ";
    code << "local ok = true local s = 0 ";
    code << "for i, v in ipairs(t) do s = s + v if i > 1 and t[i-1] > v then ok = false end end ";
    code << "return ok, s, #t";
    ValueList out = eng.eval(code.str());
    EXPECT_TRUE(out.at(0).as_bool());
    EXPECT_DOUBLE_EQ(out.at(1).as_number(), sum);
    EXPECT_DOUBLE_EQ(out.at(2).as_number(), n);
  }
}

// ---- wire_copy PBT -----------------------------------------------------------

/// Random values that stress what the codec normalises or refuses: integral
/// and non-integral number keys on both sides of 2^53, bool keys,
/// metatables, tables shared between two slots, functions, nesting around
/// kMaxValueDepth, and cycles.
class WireValueGen {
 public:
  explicit WireValueGen(uint32_t seed) : rng_(seed) {}
  WireValueGen(const WireValueGen&) = delete;
  WireValueGen& operator=(const WireValueGen&) = delete;
  /// Breaks the cycles it made, so the tables are freed.
  ~WireValueGen() {
    for (const auto& [table, key] : cycles_) table->set(Value(key), Value());
  }

  Value gen(int depth) {
    switch (pick(depth <= 0 ? 6 : 9)) {
      case 0: return {};
      case 1: return Value(pick(2) == 0);
      case 2: return Value(number());
      case 3:
        return Value(std::string(static_cast<size_t>(pick(3) * 9), static_cast<char>('a' + pick(26))));
      case 4: return Value(ObjectRef{"inproc://h" + std::to_string(pick(3)),
                                     "o" + std::to_string(pick(50)), pick(2) ? "I" : ""});
      case 5:
        if (pick(6) != 0) return Value(3.0);
        return Value(NativeFunction::make("f", [](const ValueList&) { return ValueList{}; }));
      case 6: return Value(chain(30 + pick(5)));
      default: return Value(table(depth));
    }
  }

 private:
  TablePtr table(int depth) {
    auto t = Table::make();
    const int n = pick(6);
    for (int i = 0; i < n; ++i) {
      Value v = gen(depth - 1);
      if (v.is_nil()) continue;
      switch (pick(4)) {
        case 0: t->seti(i + 1, std::move(v)); break;
        case 1: t->seti(big_int(), std::move(v)); break;
        case 2: t->set(Value(pick(2) == 0), std::move(v)); break;
        default: t->set(Value("k" + std::to_string(pick(8))), std::move(v)); break;
      }
    }
    if (const double key = number(); pick(3) == 0 && !std::isnan(key)) {
      t->set(Value(key), Value("by number"));
    }
    if (pick(4) == 0) t->set_metatable(Table::make());
    if (n > 0 && pick(5) == 0) {
      // The same subtable in two slots: the wire turns it into two tables.
      auto shared = Table::make_array({Value(1.0)});
      t->set(Value("s1"), Value(shared));
      t->set(Value("s2"), Value(shared));
    }
    switch (pick(12)) {
      case 0:
        t->set(Value("self"), Value(t));
        cycles_.emplace_back(t, "self");
        break;
      case 1: {
        auto other = Table::make();
        other->set(Value("back"), Value(t));
        t->set(Value("other"), Value(other));
        cycles_.emplace_back(other, "back");
        break;
      }
      default: break;
    }
    return t;
  }

  /// Tables nested `levels` deep, with a scalar or an empty table at the
  /// bottom: straddles the codec's depth limit.
  TablePtr chain(int levels) {
    auto top = Table::make();
    TablePtr at = top;
    for (int i = 1; i < levels; ++i) {
      auto next = Table::make();
      at->seti(1, Value(next));
      at = next;
    }
    if (pick(2) == 0) at->seti(1, Value(0.5));
    return top;
  }

  double number() {
    switch (pick(8)) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return -0.0;
      case 2: return std::numeric_limits<double>::infinity();
      case 3: return 9007199254740992.0 * (pick(2) ? 1 : -1);  // 2^53
      case 4: return 1e300;
      case 5: return static_cast<double>(pick(100)) + 0.25;
      default: return static_cast<double>(pick(1000)) - 500.0;
    }
  }

  int64_t big_int() {
    constexpr int64_t k2p53 = int64_t{1} << 53;
    switch (pick(5)) {
      case 0: return k2p53 - 1;
      case 1: return k2p53 + 1 + pick(3);
      case 2: return -k2p53 - pick(3);
      case 3: return int64_t{1} << 60;
      default: return -pick(20);
    }
  }

  int pick(int n) { return static_cast<int>(rng_() % static_cast<uint32_t>(n)); }

  std::mt19937 rng_;
  std::vector<std::pair<TablePtr, std::string>> cycles_;
};

/// Exact equality: numbers bit for bit, tables entry by entry in key order
/// with the same key kinds, object references field by field.
bool same_value(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case Value::Type::Number: {
      const double x = a.as_number();
      const double y = b.as_number();
      return std::memcmp(&x, &y, sizeof x) == 0;
    }
    case Value::Type::Object:
      return a.as_object() == b.as_object() && a.as_object().interface == b.as_object().interface;
    case Value::Type::Table: {
      const Table& ta = *a.as_table();
      const Table& tb = *b.as_table();
      if (ta.size() != tb.size() || ta.metatable() != tb.metatable()) return false;
      auto ib = tb.begin();
      for (const auto& [key, val] : ta) {
        if (!(key == ib->first) || !same_value(val, ib->second)) return false;
        ++ib;
      }
      return true;
    }
    default:
      return a == b;
  }
}

Value codec_round_trip(const Value& v) {
  ByteWriter w;
  orb::encode_value(w, v);
  ByteReader r(w.bytes());
  return orb::decode_value(r);
}

TEST(WireCopyPropertyTest, CopyIsTheCodecRoundTripAndFailsWhereItFails) {
  int refused = 0;
  for (uint32_t seed = 1; seed <= 600; ++seed) {
    WireValueGen gen(seed);
    const Value v = gen.gen(3);
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::optional<std::string> encode_error;
    Value expected;
    try {
      expected = codec_round_trip(v);
    } catch (const SerializationError& e) {
      encode_error = e.what();
    }
    try {
      const Value copy = orb::wire_copy(v);
      ASSERT_FALSE(encode_error.has_value()) << "encoder refused: " << *encode_error;
      EXPECT_TRUE(same_value(copy, expected)) << v.str();
      if (v.is_table()) {
        EXPECT_NE(copy.as_table(), v.as_table());
      }
      // The argument-list form copies element by element.
      const ValueList list = orb::wire_copy(ValueList{v, Value(1.0)});
      ASSERT_EQ(list.size(), 2u);
      EXPECT_TRUE(same_value(list[0], expected));
    } catch (const SerializationError& e) {
      ASSERT_TRUE(encode_error.has_value()) << "copy refused what the encoder took: "
                                            << e.what();
      EXPECT_EQ(std::string(e.what()), *encode_error);
      ++refused;
    }
  }
  // The generator reaches both outcomes.
  EXPECT_GT(refused, 30);
  EXPECT_LT(refused, 570);
}

TEST(WireCopyPropertyTest, DepthLimitMatchesTheEncoder) {
  // 32 levels of nesting below the top value pass, 33 do not; a self-cycle
  // is refused the same way.
  const auto nested = [](int levels) {
    Value v(1.0);
    for (int i = 0; i < levels; ++i) v = Value(Table::make_array({v}));
    return v;
  };
  EXPECT_NO_THROW(orb::wire_copy(nested(32)));
  EXPECT_NO_THROW(codec_round_trip(nested(32)));
  EXPECT_THROW(orb::wire_copy(nested(33)), SerializationError);
  EXPECT_THROW(codec_round_trip(nested(33)), SerializationError);
  auto self = Table::make();
  self->set(Value("self"), Value(self));
  EXPECT_THROW(orb::wire_copy(Value(self)), SerializationError);
  self->set(Value("self"), Value());  // break the cycle
}

}  // namespace
}  // namespace adapt
