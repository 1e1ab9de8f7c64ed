// Wire-format tests: value codec roundtrips (including randomized
// property-style sweeps) and request/reply framing.
#include "orb/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "orb/errors.h"

namespace adapt::orb {
namespace {

Value roundtrip(const Value& v) {
  ByteWriter w;
  encode_value(w, v);
  ByteReader r(w.bytes());
  Value out = decode_value(r);
  EXPECT_TRUE(r.done()) << "codec must consume exactly what it wrote";
  return out;
}

/// Deep structural equality (Value::operator== is identity for tables).
bool deep_equal(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_table()) return a == b;
  const Table& ta = *a.as_table();
  const Table& tb = *b.as_table();
  if (ta.size() != tb.size()) return false;
  for (const auto& [key, val] : ta) {
    if (!deep_equal(val, tb.get(key.to_value()))) return false;
  }
  return true;
}

TEST(WireValueTest, Scalars) {
  EXPECT_TRUE(roundtrip(Value()).is_nil());
  EXPECT_EQ(roundtrip(Value(true)).as_bool(), true);
  EXPECT_EQ(roundtrip(Value(false)).as_bool(), false);
  EXPECT_DOUBLE_EQ(roundtrip(Value(3.25)).as_number(), 3.25);
  EXPECT_DOUBLE_EQ(roundtrip(Value(-1e100)).as_number(), -1e100);
  EXPECT_EQ(roundtrip(Value("hello")).as_string(), "hello");
  EXPECT_EQ(roundtrip(Value("")).as_string(), "");
}

TEST(WireValueTest, BinaryString) {
  const std::string blob("\x00\x01\xff payload \x7f", 13);
  EXPECT_EQ(roundtrip(Value(blob)).as_string(), blob);
}

TEST(WireValueTest, ObjectRef) {
  ObjectRef ref{"tcp://10.0.0.1:9999", "monitor-1", "EventMonitor"};
  const Value out = roundtrip(Value(ref));
  EXPECT_EQ(out.as_object().endpoint, ref.endpoint);
  EXPECT_EQ(out.as_object().object_id, ref.object_id);
  EXPECT_EQ(out.as_object().interface, ref.interface);
}

TEST(WireValueTest, FlatTable) {
  auto t = Table::make();
  t->seti(1, Value(0.25));
  t->seti(2, Value(1.5));
  t->seti(3, Value(0.75));
  t->set(Value("host"), Value("node-3"));
  const Value out = roundtrip(Value(t));
  EXPECT_TRUE(deep_equal(Value(t), out));
}

TEST(WireValueTest, NestedTable) {
  auto inner = Table::make();
  inner->set(Value("deep"), Value(true));
  auto t = Table::make();
  t->set(Value("inner"), Value(inner));
  t->set(Value(false), Value("bool-key"));
  const Value out = roundtrip(Value(t));
  EXPECT_TRUE(deep_equal(Value(t), out));
}

TEST(WireValueTest, FunctionRejected) {
  auto fn = NativeFunction::make("f", [](const ValueList&) { return ValueList{}; });
  ByteWriter w;
  EXPECT_THROW(encode_value(w, Value(fn)), SerializationError);
}

TEST(WireValueTest, FunctionInsideTableRejected) {
  auto t = Table::make();
  t->set(Value("fn"), Value(NativeFunction::make("f", [](const ValueList&) {
    return ValueList{};
  })));
  ByteWriter w;
  EXPECT_THROW(encode_value(w, Value(t)), SerializationError);
}

TEST(WireValueTest, CyclicTableRejected) {
  auto t = Table::make();
  t->set(Value("self"), Value(t));
  ByteWriter w;
  EXPECT_THROW(encode_value(w, Value(t)), SerializationError);
}

TEST(WireValueTest, DeepNestingWithinLimitOk) {
  Value v(1.0);
  for (int i = 0; i < kMaxValueDepth - 1; ++i) {
    auto t = Table::make();
    t->seti(1, v);
    v = Value(t);
  }
  EXPECT_NO_THROW(roundtrip(v));
}

TEST(WireValueTest, GarbageTagRejected) {
  Bytes garbage{250};
  ByteReader r(garbage);
  EXPECT_THROW((void)decode_value(r), SerializationError);
}

TEST(WireValueTest, RandomizedRoundtripProperty) {
  // Property: decode(encode(v)) is structurally equal to v, for arbitrary
  // generated values.
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> pick(0, 5);
  std::uniform_real_distribution<double> unif(-1e6, 1e6);

  std::function<Value(int)> gen = [&](int depth) -> Value {
    switch (depth <= 0 ? pick(rng) % 4 : pick(rng)) {
      case 0: return {};
      case 1: return Value(pick(rng) % 2 == 0);
      case 2: return Value(unif(rng));
      case 3: {
        std::string s;
        const int len = pick(rng) * 7;
        for (int i = 0; i < len; ++i) s += static_cast<char>('a' + (pick(rng) * 31) % 26);
        return Value(std::move(s));
      }
      case 4: {
        ObjectRef ref{"inproc://h" + std::to_string(pick(rng)),
                      "o" + std::to_string(pick(rng)), "I"};
        return Value(std::move(ref));
      }
      default: {
        auto t = Table::make();
        const int n = pick(rng);
        for (int i = 0; i < n; ++i) t->seti(i + 1, gen(depth - 1));
        const int named = pick(rng) % 3;
        for (int i = 0; i < named; ++i) t->set(Value("k" + std::to_string(i)), gen(depth - 1));
        return Value(std::move(t));
      }
    }
  };

  for (int trial = 0; trial < 300; ++trial) {
    const Value v = gen(3);
    EXPECT_TRUE(deep_equal(v, roundtrip(v))) << "trial " << trial << ": " << v.str();
  }
}

TEST(WireMessageTest, RequestRoundtrip) {
  RequestMessage req;
  req.request_id = 77;
  req.oneway = true;
  req.object_id = "monitor-3";
  req.operation = "attachEventObserver";
  req.args = {Value("LoadIncrease"), Value(3.5), Value()};

  const Bytes bytes = encode_request(req);
  EXPECT_EQ(peek_type(bytes), MsgType::Request);
  const RequestMessage out = decode_request(bytes);
  EXPECT_EQ(out.request_id, 77u);
  EXPECT_TRUE(out.oneway);
  EXPECT_EQ(out.object_id, "monitor-3");
  EXPECT_EQ(out.operation, "attachEventObserver");
  ASSERT_EQ(out.args.size(), 3u);
  EXPECT_EQ(out.args[0].as_string(), "LoadIncrease");
  EXPECT_DOUBLE_EQ(out.args[1].as_number(), 3.5);
  EXPECT_TRUE(out.args[2].is_nil());
}

TEST(WireMessageTest, ReplyRoundtrip) {
  ReplyMessage rep;
  rep.request_id = 9;
  rep.status = ReplyStatus::UserError;
  rep.result = Value("the message");
  const Bytes bytes = encode_reply(rep);
  EXPECT_EQ(peek_type(bytes), MsgType::Reply);
  const ReplyMessage out = decode_reply(bytes);
  EXPECT_EQ(out.request_id, 9u);
  EXPECT_EQ(out.status, ReplyStatus::UserError);
  EXPECT_EQ(out.result.as_string(), "the message");
}

TEST(WireMessageTest, TypeConfusionRejected) {
  RequestMessage req;
  req.object_id = "x";
  req.operation = "y";
  const Bytes bytes = encode_request(req);
  EXPECT_THROW((void)decode_reply(bytes), SerializationError);
}

TEST(WireMessageTest, TrailingBytesRejected) {
  RequestMessage req;
  req.object_id = "x";
  req.operation = "y";
  Bytes bytes = encode_request(req);
  bytes.push_back(0xEE);
  EXPECT_THROW((void)decode_request(bytes), SerializationError);
}

TEST(WireMessageTest, EmptyPayloadRejected) {
  EXPECT_THROW((void)peek_type(Bytes{}), SerializationError);
}

TEST(WireMessageTest, HugeArgCountIsTruncationNotAllocation) {
  // A 22-byte request frame whose arg count claims billions of values. The
  // decoder must report a truncated message, not size an allocation from
  // the count (which threw std::bad_alloc, or reserved gigabytes first).
  for (const uint32_t argc : {0x7FFFFFFFu, 0xFFFFFFFFu}) {
    ByteWriter w;
    w.u8(static_cast<uint8_t>(MsgType::Request));
    w.u64(1);
    w.u8(0);
    w.str("");
    w.str("");
    w.u32(argc);
    EXPECT_THROW((void)decode_request(w.bytes()), SerializationError) << "argc " << argc;
  }
}

// ---- wire pinning: these bytes and texts are the protocol ------------------

std::string to_hex(const Bytes& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

TEST(WireGoldenTest, ContextFreeRequestIsV1) {
  RequestMessage req;
  req.request_id = 7;
  req.object_id = "obj-1";
  req.operation = "evalDP";
  req.args = {Value("LoadAvg"), Value(2)};
  EXPECT_EQ(to_hex(encode_request(req)),
            "01070000000000000000050000006f626a2d31060000006576616c4450020000"
            "0004070000004c6f6164417667030000000000000040");
  // The ORB sends the caller's argument list without copying it into the
  // message: same bytes.
  RequestMessage header = req;
  header.args.clear();
  EXPECT_EQ(encode_request(header, req.args), encode_request(req));
}

TEST(WireGoldenTest, RequestWithContextTail) {
  RequestMessage req;
  req.request_id = 0x0102030405060708ull;
  req.object_id = "monitor-1";
  req.operation = "getvalue";
  req.args = {Value(true)};
  req.traceparent = "0123456789abcdef0123456789abcdef-00f067aa0ba902b7";
  req.deadline = 0.25;
  req.critical = true;
  req.context = {{"tenant", "blue"}};
  const Bytes bytes = encode_request(req);
  EXPECT_EQ(to_hex(bytes),
            "01080706050403020100090000006d6f6e69746f722d31080000006765747661"
            "6c75650100000002040000000b0000007472616365706172656e743100000030"
            "313233343536373839616263646566303132333435363738396162636465662d"
            "3030663036376161306261393032623708000000646561646c696e6504000000"
            "302e323508000000637269746963616c01000000310600000074656e616e7404"
            "000000626c7565");
  const RequestMessage out = decode_request(bytes);
  EXPECT_EQ(out.traceparent, req.traceparent);
  EXPECT_EQ(out.deadline, 0.25);
  EXPECT_TRUE(out.critical);
  EXPECT_EQ(out.context, req.context);
}

TEST(WireGoldenTest, ReplyWithNestedTableOfEveryKeyType) {
  auto inner = Table::make();
  inner->set(Value("deep"), Value(true));
  auto t = Table::make();
  t->set(Value("name"), Value(inner));
  t->set(Value(2.5), Value(false));
  t->seti(1, Value("one"));
  t->set(Value(true), Value(-3.5));
  ReplyMessage rep;
  rep.request_id = 9;
  rep.result = Value(t);
  const Bytes bytes = encode_reply(rep);
  // Keys in table order: bool, integer, non-integral number, string.
  EXPECT_EQ(to_hex(bytes),
            "02090000000000000000050400000002030000000000000cc003000000000000"
            "f03f04030000006f6e650300000000000004400104040000006e616d65050100"
            "000004040000006465657002");
  EXPECT_TRUE(deep_equal(decode_reply(bytes).result, Value(t)));
}

TEST(WireGoldenTest, DeadlineTextIsPrintfG9) {
  std::vector<double> values = {1e-9, 1e-5, 1e-4, 0.1, 0.25, 1.0 / 3.0, 1.0, 9.999999999,
                                10.0, 123456789.0, 1234567890.0, 99999.99995, 5e11};
  std::mt19937_64 rng(20021);
  std::uniform_real_distribution<double> exponent(-9.0, 11.5);
  std::uniform_int_distribution<int> integer(1, 100000);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(std::pow(10.0, exponent(rng)));
    values.push_back(static_cast<double>(integer(rng)) / 1000.0);
  }
  for (const double secs : values) {
    char expected[40];
    std::snprintf(expected, sizeof(expected), "%.9g", secs);
    RequestMessage req;
    req.deadline = secs;
    const Bytes bytes = encode_request(req);
    // The entry's text is everything after the fixed 42-byte prefix of a
    // request whose only field is the deadline.
    constexpr size_t kPrefix = 1 + 8 + 1 + 4 + 4 + 4 + 4 + (4 + 8) + 4;
    ASSERT_EQ(std::string(bytes.begin() + kPrefix, bytes.end()), expected)
        << "deadline " << secs;
    // And the receiver reads back what strtod makes of that text.
    ASSERT_EQ(decode_request(bytes).deadline, std::strtod(expected, nullptr))
        << "deadline " << secs;
  }
}

TEST(WireGoldenTest, DeadlineDecodeReadsLikeStrtod) {
  // Each text as a peer might send it; 0 means "ignored, no deadline".
  const std::vector<std::pair<std::string, double>> cases = {
      {"0.25", 0.25}, {"+5", 5.0},  {" 5", 5.0},  {"5abc", 5.0}, {"0x1p3", 8.0},
      {"nan", 0.0},   {"inf", 0.0}, {"-1", 0.0},  {"1e12", 0.0}, {"", 0.0},
      {"abc", 0.0},   {"0", 0.0},   {"1e-3", 0.001}, {"999999999999.5", 999999999999.5}};
  for (const auto& [text, expected] : cases) {
    RequestMessage req;
    req.context = {{std::string(RequestMessage::kDeadlineKey), text}};
    const RequestMessage out = decode_request(encode_request(req));
    EXPECT_EQ(out.deadline, expected) << '"' << text << '"';
    EXPECT_TRUE(out.context.empty()) << '"' << text << '"';
  }
}

}  // namespace
}  // namespace adapt::orb
