// Heap-allocation budget of one ORB call. A counting global operator new
// (replaced for this test binary only) pins the allocations of one warmed,
// collocated evalDP-shaped invoke — the callback the trader makes to a
// host's monitor for every dynamic property at lookup time — with the
// default tracer on. A hot-path regression then fails ctest instead of
// hiding in benchmark noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "monitor/monitor.h"
#include "orb/orb.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
// Counts only the arming thread's allocations: gtest and any background
// thread stay out of the tally.
thread_local bool t_counting = false;

void* counted_alloc(std::size_t n) {
  if (t_counting) g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace adapt::orb {
namespace {

/// Heap allocations made on this thread while `fn` runs.
template <typename Fn>
uint64_t allocations_of(Fn&& fn) {
  const uint64_t before = g_allocations.load();
  t_counting = true;
  fn();
  t_counting = false;
  return g_allocations.load() - before;
}

/// The budget for one collocated evalDP-shaped call, default tracer on, at
/// the figure measured when it was set: the two spans' annotation lists,
/// the client's peer-endpoint annotation and the servant's copy of the
/// argument list. A collocated call encodes nothing, so a request or reply
/// buffer showing up here is a regression.
constexpr uint64_t kCallBudget = 4;

TEST(OrbAllocBudgetTest, CountingAllocatorSeesThisThread) {
  EXPECT_GE(allocations_of([] { delete new int(1); }), 1u);
}

TEST(OrbAllocBudgetTest, CollocatedEvalDpCallStaysWithinBudget) {
  ASSERT_TRUE(obs::default_tracer().enabled());
  // Names shaped like a deployment's ("<deployment>/<host>"), so both
  // endpoints are longer than the standard library's inline string buffer
  // and cost what they cost in production.
  const auto trader_orb = Orb::create(OrbConfig{.name = "budget/trader"});
  const auto host_orb = Orb::create(OrbConfig{.name = "budget/host-1"});
  auto engine = std::make_shared<script::ScriptEngine>();
  auto monitor = std::make_shared<monitor::BasicMonitor>("LoadAvg", engine);
  monitor->setvalue(Value(Table::make_array({Value(0.5), Value(0.25), Value(0.125)})));
  const ObjectRef ref = host_orb->register_servant(monitor);
  // What Trader::eval_dynamic sends: the property name and the offer's
  // extra, here an index into the {1, 5, 15} minute load table.
  const ValueList args = {Value("LoadAvg"), Value(2)};

  for (int i = 0; i < 16; ++i) {
    ASSERT_DOUBLE_EQ(trader_orb->invoke(ref, "evalDP", args).as_number(), 0.25);
  }
  const uint64_t spans_before = obs::default_tracer().recorded();
  constexpr int kCalls = 64;
  uint64_t worst = 0;
  for (int i = 0; i < kCalls; ++i) {
    Value result;
    worst = std::max(worst, allocations_of([&] {
                       result = trader_orb->invoke(ref, "evalDP", args);
                     }));
    ASSERT_DOUBLE_EQ(result.as_number(), 0.25);
  }
  // Both spans of every call were recorded: the budget is the traced path.
  EXPECT_EQ(obs::default_tracer().recorded() - spans_before, 2u * kCalls);
  RecordProperty("worst_call_allocations", static_cast<int>(worst));
  EXPECT_LE(worst, kCallBudget) << "one collocated evalDP call made " << worst
                                << " heap allocations";
  host_orb->shutdown();
  trader_orb->shutdown();
}

// The same call against an interface the client ORB knows from IDL: the
// per-call validation must answer from the repository without copying the
// operation's definition.
TEST(OrbAllocBudgetTest, IdlRegisteredEvalDpCallStaysWithinBudget) {
  const auto trader_orb = Orb::create(OrbConfig{.name = "budget/idl-trader"});
  const auto host_orb = Orb::create(OrbConfig{.name = "budget/idl-host-1"});
  trader_orb->interfaces().define_idl(
      "interface BasicMonitor { any evalDP(in string name, in any extra); };");
  auto engine = std::make_shared<script::ScriptEngine>();
  auto monitor = std::make_shared<monitor::BasicMonitor>("LoadAvg", engine);
  monitor->setvalue(Value(Table::make_array({Value(0.5), Value(0.25), Value(0.125)})));
  const ObjectRef ref = host_orb->register_servant(monitor);
  ASSERT_EQ(ref.interface, "BasicMonitor");
  const ValueList args = {Value("LoadAvg"), Value(2)};
  EXPECT_THROW(trader_orb->invoke(ref, "noSuchOp", args), BadOperation);

  for (int i = 0; i < 16; ++i) {
    ASSERT_DOUBLE_EQ(trader_orb->invoke(ref, "evalDP", args).as_number(), 0.25);
  }
  uint64_t worst = 0;
  for (int i = 0; i < 64; ++i) {
    Value result;
    worst = std::max(worst, allocations_of([&] {
                       result = trader_orb->invoke(ref, "evalDP", args);
                     }));
    ASSERT_DOUBLE_EQ(result.as_number(), 0.25);
  }
  RecordProperty("worst_call_allocations", static_cast<int>(worst));
  EXPECT_LE(worst, kCallBudget) << "one IDL-validated evalDP call made " << worst
                                << " heap allocations";
  host_orb->shutdown();
  trader_orb->shutdown();
}

}  // namespace
}  // namespace adapt::orb
