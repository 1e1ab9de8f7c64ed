#include "orb/wire.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "orb/errors.h"

namespace adapt::orb {

namespace {

enum class ValueTag : uint8_t {
  Nil = 0,
  False = 1,
  True = 2,
  Number = 3,
  String = 4,
  Table = 5,
  ObjRef = 6,
};

/// A table key, written exactly as encode_value writes key.to_value() but
/// without building that Value: integer keys travel as numbers.
void encode_key(ByteWriter& w, const TableKey& key) {
  if (key.is_string()) {
    w.u8(static_cast<uint8_t>(ValueTag::String));
    w.str(key.as_string());
  } else if (key.is_bool()) {
    w.u8(static_cast<uint8_t>(key.as_bool() ? ValueTag::True : ValueTag::False));
  } else {
    w.u8(static_cast<uint8_t>(ValueTag::Number));
    w.f64(key.as_number());
  }
}

// The encoder's two refusals, shared with wire_copy so a collocated call
// fails with exactly the error a TCP call would.
[[noreturn]] void throw_too_deep() {
  throw SerializationError("value nesting exceeds wire limit (cyclic table?)");
}

[[noreturn]] void throw_function() {
  throw SerializationError(
      "functions cannot cross the wire; ship source code strings instead "
      "(remote evaluation)");
}

void encode_value_rec(ByteWriter& w, const Value& v, int depth) {
  if (depth > kMaxValueDepth) throw_too_deep();
  switch (v.type()) {
    case Value::Type::Nil:
      w.u8(static_cast<uint8_t>(ValueTag::Nil));
      return;
    case Value::Type::Bool:
      w.u8(static_cast<uint8_t>(v.as_bool() ? ValueTag::True : ValueTag::False));
      return;
    case Value::Type::Number:
      w.u8(static_cast<uint8_t>(ValueTag::Number));
      w.f64(v.as_number());
      return;
    case Value::Type::String:
      w.u8(static_cast<uint8_t>(ValueTag::String));
      w.str(v.as_string());
      return;
    case Value::Type::Table: {
      w.u8(static_cast<uint8_t>(ValueTag::Table));
      const Table& t = *v.as_table();
      w.u32(static_cast<uint32_t>(t.size()));
      for (const auto& [key, val] : t) {
        encode_key(w, key);
        encode_value_rec(w, val, depth + 1);
      }
      return;
    }
    case Value::Type::Object: {
      const ObjectRef& ref = v.as_object();
      w.u8(static_cast<uint8_t>(ValueTag::ObjRef));
      w.str(ref.endpoint);
      w.str(ref.object_id);
      w.str(ref.interface);
      return;
    }
    case Value::Type::Function:
      throw_function();
  }
  throw SerializationError("unknown value type");
}

/// encode_value_rec and decode_value_rec fused: the same walk, the same
/// depth check at the same elements, and the value the decoder would build.
Value wire_copy_rec(const Value& v, int depth) {
  if (depth > kMaxValueDepth) throw_too_deep();
  switch (v.type()) {
    case Value::Type::Table: {
      auto t = Table::make();
      for (const auto& [key, val] : *v.as_table()) {
        // The key as the decoder reads it back (integer keys as numbers),
        // normalised again by Table::set.
        t->set(key.to_value(), wire_copy_rec(val, depth + 1));
      }
      return Value(std::move(t));
    }
    case Value::Type::Function:
      throw_function();
    default:
      // Nil, booleans, numbers, strings and object references are values
      // already; copying them is what the decoder's fresh construction is.
      return v;
  }
}

Value decode_value_rec(ByteReader& r, int depth) {
  if (depth > kMaxValueDepth) {
    throw SerializationError("value nesting exceeds wire limit");
  }
  const auto tag = static_cast<ValueTag>(r.u8());
  switch (tag) {
    case ValueTag::Nil: return {};
    case ValueTag::False: return Value(false);
    case ValueTag::True: return Value(true);
    case ValueTag::Number: return Value(r.f64());
    case ValueTag::String: return Value(r.str());
    case ValueTag::Table: {
      const uint32_t n = r.u32();
      auto t = Table::make();
      for (uint32_t i = 0; i < n; ++i) {
        Value key = decode_value_rec(r, depth + 1);
        Value val = decode_value_rec(r, depth + 1);
        t->set(std::move(key), std::move(val));
      }
      return Value(std::move(t));
    }
    case ValueTag::ObjRef: {
      ObjectRef ref;
      ref.endpoint = r.str();
      ref.object_id = r.str();
      ref.interface = r.str();
      return Value(std::move(ref));
    }
  }
  throw SerializationError("unknown wire tag " + std::to_string(static_cast<int>(tag)));
}

}  // namespace

void encode_value(ByteWriter& w, const Value& v) { encode_value_rec(w, v, 0); }

Value wire_copy(const Value& v) { return wire_copy_rec(v, 0); }

ValueList wire_copy(const ValueList& values) {
  ValueList out;
  out.reserve(values.size());
  for (const Value& v : values) out.push_back(wire_copy_rec(v, 0));
  return out;
}

Value decode_value(ByteReader& r) { return decode_value_rec(r, 0); }

namespace {

/// The deadline entry's value as std::strtod reads it (0 when it reads no
/// number). What write_deadline writes — a plain decimal that starts with
/// a digit — is read by std::from_chars, which agrees with strtod on every
/// string it consumes whole; anything else (a sign, blanks, hex, inf/nan, a
/// trailing suffix) takes strtod itself, so a peer's odd text is treated
/// exactly as before.
double parse_deadline(const std::string& text) {
  if (!text.empty() && text[0] >= '0' && text[0] <= '9') {
    double secs = 0.0;
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, secs);
    if (ec == std::errc() && ptr == last) return secs;
  }
  char* end = nullptr;
  const double secs = std::strtod(text.c_str(), &end);
  return end == text.c_str() ? 0.0 : secs;
}

/// Decimal text of the deadline entry, the same characters as printf's
/// "%.9g" (to_chars' general format with a precision is specified as that
/// conversion): ~1ns resolution at second scale, plenty for a queueing
/// budget.
void write_deadline(ByteWriter& w, double secs) {
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), secs, std::chars_format::general, 9);
  w.str(std::string_view(buf, static_cast<size_t>(end - buf)));
}

/// Starting buffer size for an encoded message: the fixed fields plus a
/// shallow guess at the values, so a typical call fits in one allocation.
/// Deeper values grow the buffer as needed.
size_t size_hint(const Value& v) {
  switch (v.type()) {
    case Value::Type::String: return 5 + v.as_string().size();
    case Value::Type::Table: return 5 + 24 * v.as_table()->size();
    default: return 9;
  }
}

}  // namespace

void RequestMessage::set_context(std::string_view key, std::string value) {
  if (key == kTraceparentKey) {
    traceparent = std::move(value);
  } else if (key == kDeadlineKey) {
    const double secs = parse_deadline(value);
    if (secs > 0.0 && secs < 1e12) deadline = secs;
  } else if (key == kCriticalKey) {
    critical = value == "1" || value == "true";
  } else {
    context.emplace_back(std::string(key), std::move(value));
  }
}

Bytes encode_request(const RequestMessage& req) { return encode_request(req, req.args); }

Bytes encode_request(const RequestMessage& req, const ValueList& args) {
  size_t hint = 1 + 8 + 1 + 4 + req.object_id.size() + 4 + req.operation.size() + 4;
  for (const Value& arg : args) hint += size_hint(arg);
  if (req.has_context()) hint += 128 + req.traceparent.size();
  // The traceparent entry: the peer's text when relaying, else the span
  // context formatted once here.
  const std::string traceparent =
      req.traceparent.empty() && req.trace.valid() ? req.trace.to_header() : std::string();
  const std::string& tp = req.traceparent.empty() ? traceparent : req.traceparent;
  ByteWriter w(hint);
  w.u8(static_cast<uint8_t>(MsgType::Request));
  w.u64(req.request_id);
  w.u8(req.oneway ? 1 : 0);
  w.str(req.object_id);
  w.str(req.operation);
  w.u32(static_cast<uint32_t>(args.size()));
  for (const Value& arg : args) encode_value(w, arg);
  if (req.has_context()) {
    // v2 optional tail (see RequestMessage::context). Omitted when empty so
    // context-free requests stay bit-identical to the v1 encoding.
    uint32_t entries = static_cast<uint32_t>(req.context.size());
    if (!tp.empty()) ++entries;
    if (req.deadline > 0.0) ++entries;
    if (req.critical) ++entries;
    w.u32(entries);
    if (!tp.empty()) {
      w.str(RequestMessage::kTraceparentKey);
      w.str(tp);
    }
    if (req.deadline > 0.0) {
      w.str(RequestMessage::kDeadlineKey);
      write_deadline(w, req.deadline);
    }
    if (req.critical) {
      w.str(RequestMessage::kCriticalKey);
      w.str("1");
    }
    for (const auto& [key, value] : req.context) {
      w.str(key);
      w.str(value);
    }
  }
  return w.take();
}

Bytes encode_reply(const ReplyMessage& rep) {
  ByteWriter w(1 + 8 + 1 + size_hint(rep.result));
  w.u8(static_cast<uint8_t>(MsgType::Reply));
  w.u64(rep.request_id);
  w.u8(static_cast<uint8_t>(rep.status));
  encode_value(w, rep.result);
  return w.take();
}

MsgType peek_type(const Bytes& payload) {
  if (payload.empty()) throw SerializationError("empty message");
  const auto t = static_cast<MsgType>(payload[0]);
  if (t != MsgType::Request && t != MsgType::Reply) {
    throw SerializationError("unknown message type");
  }
  return t;
}

RequestMessage decode_request(const Bytes& payload) {
  ByteReader r(payload);
  if (static_cast<MsgType>(r.u8()) != MsgType::Request) {
    throw SerializationError("not a request message");
  }
  RequestMessage req;
  req.request_id = r.u64();
  req.oneway = r.u8() != 0;
  req.object_id = r.str();
  req.operation = r.str();
  const uint32_t argc = r.u32();
  // Every encoded value takes at least one byte, so a count beyond what is
  // left of the frame is a lie the loop below reports as truncation; never
  // let it size an allocation.
  req.args.reserve(std::min<size_t>(argc, r.remaining()));
  for (uint32_t i = 0; i < argc; ++i) req.args.push_back(decode_value(r));
  if (!r.done()) {
    // v2 optional tail; a v1 frame ends right after the args.
    const uint32_t entries = r.u32();
    for (uint32_t i = 0; i < entries; ++i) {
      std::string key = r.str();
      req.set_context(key, r.str());
    }
  }
  if (!r.done()) throw SerializationError("trailing bytes in request");
  return req;
}

ReplyMessage decode_reply(const Bytes& payload) {
  ByteReader r(payload);
  if (static_cast<MsgType>(r.u8()) != MsgType::Reply) {
    throw SerializationError("not a reply message");
  }
  ReplyMessage rep;
  rep.request_id = r.u64();
  rep.status = static_cast<ReplyStatus>(r.u8());
  rep.result = decode_value(r);
  if (!r.done()) throw SerializationError("trailing bytes in reply");
  return rep;
}

}  // namespace adapt::orb
