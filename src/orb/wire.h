// Wire format (CDR/GIOP analog): Value marshalling plus request/reply frames.
//
// Every value that crosses an ORB boundary has by-value semantics: the
// receiver gets what decode_value(encode_value(v)) returns. Over TCP that is
// literally the codec below. A collocated call (two ORBs in one process)
// keeps the semantics but not the bytes: wire_copy builds the same value
// directly, so nobody encodes a frame that only this process would read.
// Functions are not marshallable: per the paper's remote-evaluation model,
// code travels as *source strings* and is compiled at the receiver.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/bytes.h"
#include "base/value.h"
#include "obs/trace.h"

namespace adapt::orb {

/// Marshals one value (nil/bool/number/string/table/objref).
/// Throws SerializationError for functions or excessive nesting.
void encode_value(ByteWriter& w, const Value& v);
Value decode_value(ByteReader& r);

/// Maximum table-nesting depth accepted by the codec (cycle guard).
inline constexpr int kMaxValueDepth = 32;

/// What decode_value(encode_value(v)) returns, built without the bytes:
/// tables come back fresh (no sharing with `v`, metatables dropped, integral
/// keys normalised as the decoder does), object references copied field by
/// field. Throws the codec's SerializationError for functions and for
/// nesting beyond kMaxValueDepth, at the same element the encoder would.
Value wire_copy(const Value& v);
ValueList wire_copy(const ValueList& values);

enum class MsgType : uint8_t { Request = 1, Reply = 2 };

enum class ReplyStatus : uint8_t {
  Ok = 0,
  UserError = 1,    // servant raised an application error
  SystemError = 2,  // object not found / dispatch failure
};

struct RequestMessage {
  uint64_t request_id = 0;
  bool oneway = false;
  std::string object_id;
  std::string operation;
  ValueList args = {};
  /// v2 extension: out-of-band request metadata. Encoded only when non-empty,
  /// as an optional key/value tail after the args. Compatibility is
  /// one-directional: the v2 decoder accepts v1 frames (no tail) unchanged
  /// and a context-free v2 frame is byte-identical to v1, but a v1 decoder
  /// *rejects* frames that do carry the tail ("trailing bytes"). The ORB
  /// therefore emits the tail over TCP only when
  /// OrbConfig::propagate_wire_context opts in (in-process calls, which
  /// cannot hit an old decoder, always carry the context, as typed fields
  /// that are never encoded). On the wire every entry is
  /// a (key, value) string pair; in memory the one key every traced request
  /// carries ("traceparent") has a dedicated field so the per-invocation hot
  /// path never allocates the vector. A decoded request keeps the peer's
  /// text here; a request the ORB builds sets `trace` instead.
  std::string traceparent = {};
  /// The caller's span context as a value. Only encode_request turns it into
  /// text (the "traceparent" entry, unless `traceparent` is already set), so
  /// a collocated call hands it to the server span without formatting or
  /// parsing hex.
  obs::TraceContext trace = {};
  /// Caller's remaining deadline budget in seconds at send time (gRPC
  /// grpc-timeout analog). 0 means "no deadline propagated". Carried on the
  /// wire as the context entry "deadline" (decimal seconds) so pre-deadline
  /// v2 peers simply keep it in the generic list and v1 peers reject the
  /// whole tail exactly as they do for traceparent.
  double deadline = 0.0;
  /// Criticality bit: control-plane traffic (heartbeats, breaker probes,
  /// trader lookups) that admission control must never shed. Wire context
  /// entry "critical" with value "1"; absent when false.
  bool critical = false;
  /// Context entries other than the dedicated fields above (rare; reserved
  /// for future keys). Same wire representation, just generic.
  std::vector<std::pair<std::string, std::string>> context = {};

  [[nodiscard]] bool has_context() const {
    return !traceparent.empty() || trace.valid() || deadline > 0.0 || critical ||
           !context.empty();
  }
  /// Context value stored under `key`, or nullptr. Only string-valued keys
  /// are reachable here; "deadline"/"critical" have typed fields instead.
  [[nodiscard]] const std::string* find_context(std::string_view key) const {
    if (key == kTraceparentKey) return traceparent.empty() ? nullptr : &traceparent;
    for (const auto& [k, v] : context) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  /// Stores `value` under `key`, routing the dedicated keys ("traceparent",
  /// "deadline", "critical") to their typed fields. A malformed deadline
  /// from a peer is ignored (treated as "no deadline") rather than rejected:
  /// the tail is advisory metadata, not part of the call's correctness.
  void set_context(std::string_view key, std::string value);

  /// The distributed-tracing context key (W3C traceparent analog).
  static constexpr std::string_view kTraceparentKey = "traceparent";
  /// Remaining-budget context key (seconds, decimal string).
  static constexpr std::string_view kDeadlineKey = "deadline";
  /// Criticality context key (value "1" when set).
  static constexpr std::string_view kCriticalKey = "critical";
};

struct ReplyMessage {
  uint64_t request_id = 0;
  ReplyStatus status = ReplyStatus::Ok;
  Value result;  // result value, or error-message string on failure
};

Bytes encode_request(const RequestMessage& req);
/// Encodes `req` with `args` in place of req.args, so a caller can send its
/// own argument list without copying it into the message first.
Bytes encode_request(const RequestMessage& req, const ValueList& args);
Bytes encode_reply(const ReplyMessage& rep);

/// Decodes a message payload (without the u32 frame-length prefix).
MsgType peek_type(const Bytes& payload);
RequestMessage decode_request(const Bytes& payload);
ReplyMessage decode_reply(const Bytes& payload);

}  // namespace adapt::orb
