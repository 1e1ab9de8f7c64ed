#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <random>
#include <type_traits>

#include "obs/json.h"

namespace adapt::obs {

namespace {

uint64_t steady_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// Nonzero 64-bit random id. Thread-local generator: id allocation must not
/// serialize concurrent invocations.
uint64_t random_id() {
  thread_local std::mt19937_64 rng = [] {
    std::random_device rd;
    const auto now = static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    std::seed_seq seq{static_cast<uint64_t>(rd()), static_cast<uint64_t>(rd()), now};
    return std::mt19937_64(seq);
  }();
  uint64_t id = 0;
  while (id == 0) id = rng();
  return id;
}

void hex16(char* out, uint64_t v) {
  static const char* digits = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) out[i] = digits[(v >> (60 - 4 * i)) & 0xF];
}

void hex16(std::string& out, uint64_t v) {
  char buf[16];
  hex16(buf, v);
  out.append(buf, 16);
}

/// Hex digit value of every byte, 0xFF for a non-digit: one load per
/// character instead of a chain of range checks.
constexpr std::array<uint8_t, 256> kHexValue = [] {
  std::array<uint8_t, 256> table{};
  for (auto& v : table) v = 0xFF;
  for (int c = 0; c < 10; ++c) table['0' + c] = static_cast<uint8_t>(c);
  for (int c = 0; c < 6; ++c) {
    table['a' + c] = static_cast<uint8_t>(10 + c);
    table['A' + c] = static_cast<uint8_t>(10 + c);
  }
  return table;
}();

bool parse_hex(std::string_view s, uint64_t& out) {
  if (s.size() != 16) return false;
  uint64_t v = 0;
  uint8_t bad = 0;
  for (const char c : s) {
    const uint8_t digit = kHexValue[static_cast<uint8_t>(c)];
    bad |= digit;
    v = (v << 4) | (digit & 0xF);
  }
  // Any non-digit contributes 0xFF, which no run of digits (0..15) can.
  if (bad & 0xF0) return false;
  out = v;
  return true;
}

/// The thread's stack of open (non-detached) span contexts. Deliberately a
/// trivially-destructible fixed array, NOT a std::vector: a vector would
/// register a TLS destructor, which glibc runs *before* static destructors —
/// and statics (Infrastructure fixtures, ORBs held by main) legitimately open
/// spans while tearing down (e.g. ServiceAgent withdrawing offers). With
/// trivial destruction the storage stays valid until the thread truly exits.
/// Frames past kMaxDepth are counted, not stored; those spans simply don't
/// parent their children.
struct ContextStack {
  static constexpr size_t kMaxDepth = 64;
  TraceContext frames[kMaxDepth];
  size_t depth = 0;  // logical depth, may exceed kMaxDepth

  void push(const TraceContext& ctx) {
    if (depth < kMaxDepth) frames[depth] = ctx;
    ++depth;
  }
  void pop() {
    if (depth > 0) --depth;
  }
  [[nodiscard]] TraceContext top() const {
    if (depth == 0 || depth > kMaxDepth) return TraceContext{};
    return frames[depth - 1];
  }
};
static_assert(std::is_trivially_destructible_v<ContextStack>);
thread_local ContextStack t_context_stack;

}  // namespace

// ---- TraceContext ---------------------------------------------------------

std::string TraceContext::trace_id_hex() const {
  char buf[32];
  hex16(buf, trace_hi);
  hex16(buf + 16, trace_lo);
  return std::string(buf, sizeof(buf));
}

std::string TraceContext::to_header() const {
  // One exact-size allocation; this runs once per traced RPC.
  char buf[49];
  hex16(buf, trace_hi);
  hex16(buf + 16, trace_lo);
  buf[32] = '-';
  hex16(buf + 33, span_id);
  return std::string(buf, sizeof(buf));
}

std::optional<TraceContext> TraceContext::from_header(std::string_view header) {
  if (header.size() != 49 || header[32] != '-') return std::nullopt;
  TraceContext ctx;
  if (!parse_hex(header.substr(0, 16), ctx.trace_hi)) return std::nullopt;
  if (!parse_hex(header.substr(16, 16), ctx.trace_lo)) return std::nullopt;
  if (!parse_hex(header.substr(33, 16), ctx.span_id)) return std::nullopt;
  if (!ctx.valid()) return std::nullopt;
  return ctx;
}

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Internal: return "internal";
    case SpanKind::Client: return "client";
    case SpanKind::Server: return "server";
  }
  return "unknown";
}

std::string Span::trace_id_hex() const {
  return TraceContext{trace_hi, trace_lo, span_id}.trace_id_hex();
}

std::string span_to_json(const Span& span) {
  std::string out;
  out.reserve(192);
  out += "{\"trace\":\"";
  out += span.trace_id_hex();
  out += "\",\"span\":\"";
  hex16(out, span.span_id);
  out += "\",\"parent\":\"";
  hex16(out, span.parent_id);
  out += "\",\"name\":\"";
  json_escape(out, span.name);
  out += "\",\"kind\":\"";
  out += span_kind_name(span.kind);
  out += "\",\"start_ns\":" + std::to_string(span.start_ns);
  out += ",\"duration_ns\":" + std::to_string(span.duration_ns);
  out += ",\"ok\":";
  out += span.ok ? "true" : "false";
  if (!span.status.empty()) {
    out += ",\"status\":\"";
    json_escape(out, span.status);
    out += "\"";
  }
  if (!span.annotations.empty()) {
    out += ",\"annotations\":{";
    bool first = true;
    for (const auto& [key, value] : span.annotations) {
      if (!first) out.push_back(',');
      first = false;
      out.push_back('"');
      json_escape(out, key);
      out += "\":\"";
      json_escape(out, value);
      out.push_back('"');
    }
    out.push_back('}');
  }
  out.push_back('}');
  return out;
}

// ---- Tracer ---------------------------------------------------------------

Tracer::Tracer(size_t capacity) : slots_(std::max<size_t>(capacity, 1)) {}

void Tracer::set_exporter(Exporter exporter) {
  std::scoped_lock lock(exporter_mu_);
  exporter_ = std::move(exporter);
  has_exporter_.store(static_cast<bool>(exporter_), std::memory_order_release);
}

void Tracer::record(Span span) {
  if (!enabled()) return;
  // Export before the span is moved into its slot. The atomic flag keeps the
  // common no-exporter path free of the exporter mutex and function copy.
  if (has_exporter_.load(std::memory_order_acquire)) {
    Exporter exporter;
    {
      std::scoped_lock lock(exporter_mu_);
      exporter = exporter_;
    }
    if (exporter) exporter(span);
  }
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % slots_.size()];
  {
    std::scoped_lock lock(slot.mu);
    // A stale writer that lost a full ring lap must not clobber newer data.
    if (slot.seq < seq + 1) {
      slot.seq = seq + 1;
      slot.span = std::move(span);
    }
  }
}

std::vector<Span> Tracer::recent(size_t max) const {
  std::vector<std::pair<uint64_t, Span>> held;
  held.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    std::scoped_lock lock(slot.mu);
    if (slot.seq != 0) held.emplace_back(slot.seq, slot.span);
  }
  std::sort(held.begin(), held.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (max != 0 && held.size() > max) {
    held.erase(held.begin(), held.end() - static_cast<ptrdiff_t>(max));
  }
  std::vector<Span> out;
  out.reserve(held.size());
  for (auto& [seq, span] : held) out.push_back(std::move(span));
  return out;
}

std::vector<Span> Tracer::trace(uint64_t trace_hi, uint64_t trace_lo) const {
  std::vector<Span> out;
  for (const Slot& slot : slots_) {
    std::scoped_lock lock(slot.mu);
    if (slot.seq != 0 && slot.span.trace_hi == trace_hi && slot.span.trace_lo == trace_lo) {
      out.push_back(slot.span);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return out;
}

std::vector<Span> Tracer::find_trace(const std::string& trace_id_hex) const {
  const auto ctx = TraceContext::from_header(trace_id_hex + "-0000000000000001");
  if (!ctx) return {};
  return trace(ctx->trace_hi, ctx->trace_lo);
}

void Tracer::clear() {
  for (Slot& slot : slots_) {
    std::scoped_lock lock(slot.mu);
    slot.seq = 0;
    slot.span = Span{};
  }
}

Tracer& default_tracer() { return *default_tracer_ptr(); }

std::shared_ptr<Tracer> default_tracer_ptr() {
  // Leaked-on-purpose shared_ptr singleton: ORBs can hold it safely even
  // when their destruction outlives static teardown ordering.
  static std::shared_ptr<Tracer>* tracer = new std::shared_ptr<Tracer>(
      std::make_shared<Tracer>());
  return *tracer;
}

// ---- thread-local context -------------------------------------------------

TraceContext current_context() { return t_context_stack.top(); }

ContextGuard::ContextGuard(const TraceContext& ctx) {
  if (ctx.valid()) {
    t_context_stack.push(ctx);
    pushed_ = true;
  }
}

ContextGuard::~ContextGuard() {
  if (pushed_) t_context_stack.pop();
}

// ---- ScopedSpan -----------------------------------------------------------

ScopedSpan::ScopedSpan(std::string name, SpanOptions options)
    : tracer_(options.tracer != nullptr ? options.tracer : &default_tracer()) {
  if (!tracer_->enabled()) return;
  active_ = true;

  TraceContext parent;
  if (options.remote_parent != nullptr && options.remote_parent->valid()) {
    parent = *options.remote_parent;
  } else {
    parent = current_context();
  }
  if (parent.valid()) {
    ctx_.trace_hi = parent.trace_hi;
    ctx_.trace_lo = parent.trace_lo;
    span_.parent_id = parent.span_id;
  } else {
    ctx_.trace_hi = random_id();
    ctx_.trace_lo = random_id();
  }
  ctx_.span_id = random_id();

  span_.trace_hi = ctx_.trace_hi;
  span_.trace_lo = ctx_.trace_lo;
  span_.span_id = ctx_.span_id;
  span_.name = std::move(name);
  span_.kind = options.kind;
  span_.start_ns = steady_ns();

  if (!options.detached) {
    t_context_stack.push(ctx_);
    pushed_ = true;
  }
}

ScopedSpan::~ScopedSpan() { finish(); }

void ScopedSpan::annotate(std::string key, std::string value) {
  if (!active_ || finished_) return;
  // ORB spans carry one annotation, higher layers at most a couple: the
  // first annotate sizes for two, and a span without any allocates nothing.
  if (span_.annotations.empty()) span_.annotations.reserve(2);
  span_.annotations.emplace_back(std::move(key), std::move(value));
}

void ScopedSpan::set_error(std::string what) {
  if (!active_ || finished_) return;
  span_.ok = false;
  span_.status = std::move(what);
}

void ScopedSpan::finish() {
  if (pushed_) {
    // Pop our own frame. Guard against a foreign finish() called with extra
    // frames above us (a bug upstream, but never corrupt the stack here);
    // overflowed frames (depth > kMaxDepth) are popped unconditionally since
    // they were never stored.
    if (t_context_stack.depth > ContextStack::kMaxDepth ||
        t_context_stack.top().span_id == ctx_.span_id) {
      t_context_stack.pop();
    }
    pushed_ = false;
  }
  if (!active_ || finished_) return;
  finished_ = true;
  span_.duration_ns = steady_ns() - span_.start_ns;
  tracer_->record(std::move(span_));
}

}  // namespace adapt::obs
