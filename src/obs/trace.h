// Distributed tracing (observability substrate for adaptation decisions).
//
// A TraceContext is a (128-bit trace id, 64-bit span id) pair that follows
// one logical request across proxies, ORBs and servants. Spans are opened
// automatically by the ORB on both sides of every invocation (client span in
// Orb::invoke_impl, server span around Servant::dispatch) and propagate over
// the wire via the request's `context` string map ("traceparent" key), so a
// two-hop call client -> A -> B yields one trace whose spans are correctly
// parented across three address spaces. In-process hops always propagate,
// handing the TraceContext over as a value with no header text; TCP hops
// carry the context only when OrbConfig::propagate_wire_context opts in,
// because pre-context peers reject the wire tail (see orb/wire.h). Higher
// layers (SmartProxy, InterceptedCaller, monitors, Luma strategies) add
// their own spans so
// adaptation-triggered rebinds and aspect evaluations are visible inside the
// same trace.
//
// Finished spans land in a Tracer: a fixed-capacity ring buffer with sharded
// per-slot locking (writers reserve a slot with one atomic fetch_add and
// never contend unless the ring wraps onto an in-use slot). An optional
// exporter callback receives every finished span (JSON-lines via
// span_to_json); with no exporter attached the cost per span is one clock
// pair, one slot write and no allocation beyond the span's own strings.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace adapt::obs {

/// Propagated identity of the active span: which trace we are in and which
/// span is the parent of anything opened next.
struct TraceContext {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;

  [[nodiscard]] bool valid() const { return (trace_hi | trace_lo) != 0; }
  /// 32 lowercase hex chars.
  [[nodiscard]] std::string trace_id_hex() const;
  /// Wire form carried in RequestMessage::context["traceparent"]:
  /// "<trace:32 hex>-<span:16 hex>".
  [[nodiscard]] std::string to_header() const;
  /// Parses to_header output; nullopt on malformed input (never throws:
  /// a peer's bad header must not fail the request).
  static std::optional<TraceContext> from_header(std::string_view header);
};

enum class SpanKind : uint8_t { Internal = 0, Client = 1, Server = 2 };

[[nodiscard]] const char* span_kind_name(SpanKind kind);

/// One finished span. Timestamps are steady-clock nanoseconds (monotonic
/// within the process; not wall time).
struct Span {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  std::string name;
  SpanKind kind = SpanKind::Internal;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  bool ok = true;
  std::string status;  // error text when !ok
  std::vector<std::pair<std::string, std::string>> annotations;

  [[nodiscard]] std::string trace_id_hex() const;
};

/// One span as a single JSON object (no trailing newline) — the JSON-lines
/// exporter format and the `adaptsh trace` dump format.
[[nodiscard]] std::string span_to_json(const Span& span);

/// Ring buffer of finished spans + optional exporter. Thread-safe.
class Tracer {
 public:
  using Exporter = std::function<void(const Span&)>;

  /// Default capacity keeps the ring (~220 B/slot) around 56 KiB so the two
  /// slot writes per RPC stay cache-resident under load; deployments that
  /// want deeper retention pass their own Tracer via OrbConfig.
  explicit Tracer(size_t capacity = 256);

  /// Disabled tracers make ScopedSpan inert (no ids, no recording).
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Called with every finished span, under no tracer-wide lock. Pass
  /// nullptr to detach. The exporter must be fast or hand off to a queue.
  void set_exporter(Exporter exporter);

  void record(Span span);

  /// Most recent spans, oldest first. max == 0 returns everything retained.
  [[nodiscard]] std::vector<Span> recent(size_t max = 0) const;
  /// All retained spans of one trace, sorted by start time.
  [[nodiscard]] std::vector<Span> trace(uint64_t trace_hi, uint64_t trace_lo) const;
  [[nodiscard]] std::vector<Span> find_trace(const std::string& trace_id_hex) const;

  void clear();
  /// Total spans ever recorded (including ones the ring has dropped; not
  /// reset by clear()). Equals the claimed slot count, so the hot path pays
  /// for one atomic increment, not two.
  [[nodiscard]] uint64_t recorded() const { return next_.load(std::memory_order_relaxed); }
  [[nodiscard]] size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    mutable std::mutex mu;
    uint64_t seq = 0;  // 0 = empty, else 1-based record number
    Span span;
  };

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_{0};  // next slot sequence to claim
  std::vector<Slot> slots_;
  mutable std::mutex exporter_mu_;
  Exporter exporter_;
  /// Mirrors whether exporter_ is set; lets record() skip the mutex (and the
  /// std::function copy) entirely on the no-exporter hot path.
  std::atomic<bool> has_exporter_{false};
};

/// Process-wide default tracer: every ORB records here unless OrbConfig
/// supplies its own, so one query sees a whole in-process deployment.
[[nodiscard]] Tracer& default_tracer();
[[nodiscard]] std::shared_ptr<Tracer> default_tracer_ptr();

/// The calling thread's active context (invalid when no span is open).
[[nodiscard]] TraceContext current_context();

/// Installs an existing context as the thread's current one (no span is
/// created) — used to carry a context onto worker threads (invoke_async).
/// No-op for an invalid context.
class ContextGuard {
 public:
  explicit ContextGuard(const TraceContext& ctx);
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  bool pushed_ = false;
};

struct SpanOptions {
  SpanKind kind = SpanKind::Internal;
  /// Server side: parent received over the wire. Overrides the thread-local
  /// parent when set and valid.
  const TraceContext* remote_parent = nullptr;
  /// Destination ring; default_tracer() when null.
  Tracer* tracer = nullptr;
  /// Detached spans do not become the thread's current context (used by the
  /// Luma `trace.span` handle, which may finish out of scope order or on
  /// another thread). They still parent under the context current at
  /// creation.
  bool detached = false;
};

/// RAII span: opens on construction (child of the current thread context, a
/// remote parent, or a fresh root trace), records to the tracer on
/// destruction. Inert when the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, SpanOptions options = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// False when tracing was disabled at construction: all methods no-op.
  [[nodiscard]] bool active() const { return active_; }
  /// This span's context (what a child or a wire header should carry).
  [[nodiscard]] const TraceContext& context() const { return ctx_; }

  void annotate(std::string key, std::string value);
  void set_error(std::string what);
  /// Records now instead of at destruction (idempotent).
  void finish();
  /// Span duration, valid after finish(). Lets callers reuse the span's
  /// clock reads for their own latency metrics instead of re-reading.
  [[nodiscard]] uint64_t duration_ns() const { return span_.duration_ns; }

 private:
  bool active_ = false;
  bool pushed_ = false;
  bool finished_ = false;
  Tracer* tracer_ = nullptr;
  TraceContext ctx_;
  Span span_;
};

}  // namespace adapt::obs
