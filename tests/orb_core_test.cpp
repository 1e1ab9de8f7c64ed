// ORB tests: object adapter, local + in-process invocation, error mapping,
// script servants (DSI), interface validation, oneways, ObjectHandle.
#include "orb/orb.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace adapt::orb {
namespace {

/// An echo/counter servant used across tests.
std::shared_ptr<FunctionServant> make_calc() {
  auto servant = FunctionServant::make("Calc");
  servant->on("add", [](const ValueList& args) {
    return Value(args.at(0).as_number() + args.at(1).as_number());
  });
  servant->on("echo", [](const ValueList& args) {
    return args.empty() ? Value() : args[0];
  });
  servant->on("fail", [](const ValueList&) -> Value {
    throw Error("deliberate failure");
  });
  return servant;
}

TEST(OrbTest, RegisterAndInvokeLocal) {
  auto orb = Orb::create();
  const ObjectRef ref = orb->register_servant(make_calc());
  EXPECT_EQ(ref.interface, "Calc");
  const Value sum = orb->invoke(ref, "add", {Value(2.0), Value(40.0)});
  EXPECT_DOUBLE_EQ(sum.as_number(), 42.0);
}

TEST(OrbTest, AutoIdsAreUnique) {
  auto orb = Orb::create();
  const ObjectRef a = orb->register_servant(make_calc());
  const ObjectRef b = orb->register_servant(make_calc());
  EXPECT_NE(a.object_id, b.object_id);
}

TEST(OrbTest, ExplicitIdAndDuplicateRejected) {
  auto orb = Orb::create();
  orb->register_servant(make_calc(), "calculator");
  EXPECT_THROW(orb->register_servant(make_calc(), "calculator"), OrbError);
}

TEST(OrbTest, UnregisterMakesObjectNotFound) {
  auto orb = Orb::create();
  const ObjectRef ref = orb->register_servant(make_calc(), "gone");
  orb->unregister_servant("gone");
  EXPECT_THROW(orb->invoke(ref, "echo", {Value(1.0)}), ObjectNotFound);
}

TEST(OrbTest, UnknownOperationIsBadOperation) {
  auto orb = Orb::create();
  const ObjectRef ref = orb->register_servant(make_calc());
  EXPECT_THROW(orb->invoke(ref, "nothere", {}), BadOperation);
}

TEST(OrbTest, ServantErrorBecomesRemoteError) {
  auto orb = Orb::create();
  const ObjectRef ref = orb->register_servant(make_calc());
  try {
    orb->invoke(ref, "fail", {});
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_NE(std::string(e.what()).find("deliberate failure"), std::string::npos);
  }
}

TEST(OrbTest, ArgumentsRoundTripThroughMarshalling) {
  auto orb = Orb::create();
  const ObjectRef ref = orb->register_servant(make_calc());
  auto t = Table::make();
  t->seti(1, Value(0.5));
  t->set(Value("name"), Value("x"));
  const Value out = orb->invoke(ref, "echo", {Value(t)});
  ASSERT_TRUE(out.is_table());
  EXPECT_NE(out.as_table(), t) << "tables are copied across the wire, not shared";
  EXPECT_DOUBLE_EQ(out.as_table()->geti(1).as_number(), 0.5);
  EXPECT_EQ(out.as_table()->get(Value("name")).as_string(), "x");
}

TEST(OrbTest, FunctionArgumentRejectedBySerialization) {
  auto orb = Orb::create();
  const ObjectRef ref = orb->register_servant(make_calc());
  const Value fn(NativeFunction::make("f", [](const ValueList&) { return ValueList{}; }));
  EXPECT_THROW(orb->invoke(ref, "echo", {fn}), SerializationError);
}

TEST(OrbTest, CollocatedCallsKeepByValueSemantics) {
  // A servant that scribbles on its table argument and hands back a table
  // it keeps: neither side may see the other's later writes, exactly as if
  // the call had crossed TCP.
  auto server = Orb::create({.name = "isolation-server"});
  auto client = Orb::create({.name = "isolation-client"});
  auto kept = Table::make();
  kept->set(Value("hits"), Value(1.0));
  auto servant = FunctionServant::make("Scribbler");
  servant->on("scribble", [kept](const ValueList& args) {
    const TablePtr& arg = args.at(0).as_table();
    EXPECT_EQ(arg->metatable(), nullptr) << "metatables do not cross";
    arg->set(Value("touched"), Value(true));
    arg->get(Value("inner")).as_table()->seti(1, Value("servant"));
    return Value(kept);
  });
  const ObjectRef ref = server->register_servant(servant);

  auto inner = Table::make();
  inner->seti(1, Value("caller"));
  auto arg = Table::make();
  arg->set(Value("inner"), Value(inner));
  arg->set_metatable(Table::make());
  const Value out = client->invoke(ref, "scribble", {Value(arg)});

  EXPECT_TRUE(arg->get(Value("touched")).is_nil()) << "the servant wrote to a copy";
  EXPECT_EQ(inner->geti(1).as_string(), "caller");
  EXPECT_NE(arg->metatable(), nullptr);

  ASSERT_TRUE(out.is_table());
  EXPECT_NE(out.as_table(), kept) << "the result is a copy, not the servant's table";
  out.as_table()->set(Value("hits"), Value(99.0));
  EXPECT_DOUBLE_EQ(kept->get(Value("hits")).as_number(), 1.0);
  kept->set(Value("hits"), Value(2.0));
  EXPECT_DOUBLE_EQ(out.as_table()->get(Value("hits")).as_number(), 99.0);
}

TEST(OrbTest, InprocInvocationBetweenOrbs) {
  auto server = Orb::create({.name = "server-host"});
  auto client = Orb::create({.name = "client-host"});
  const ObjectRef ref = server->register_servant(make_calc());
  EXPECT_EQ(ref.endpoint, "inproc://server-host");
  const Value sum = client->invoke(ref, "add", {Value(1.0), Value(2.0)});
  EXPECT_DOUBLE_EQ(sum.as_number(), 3.0);
}

TEST(OrbTest, InprocNameCollisionRejected) {
  auto first = Orb::create({.name = "dup-host"});
  EXPECT_THROW(Orb::create({.name = "dup-host"}), Error);
}

TEST(OrbTest, InprocNameReusableAfterShutdown) {
  {
    auto orb = Orb::create({.name = "reuse-host"});
  }
  EXPECT_NO_THROW(Orb::create({.name = "reuse-host"}));
}

TEST(OrbTest, UnreachableInprocEndpointIsTransportError) {
  auto client = Orb::create();
  ObjectRef ref{"inproc://no-such-host", "obj", ""};
  EXPECT_THROW(client->invoke(ref, "op", {}), TransportError);
}

TEST(OrbTest, EmptyRefRejected) {
  auto orb = Orb::create();
  EXPECT_THROW(orb->invoke(ObjectRef{}, "op", {}), OrbError);
}

TEST(OrbTest, PingSemantics) {
  auto server = Orb::create();
  auto client = Orb::create();
  const ObjectRef ref = server->register_servant(make_calc(), "alive");
  EXPECT_TRUE(client->ping(ref));
  server->unregister_servant("alive");
  EXPECT_FALSE(client->ping(ref));
  ObjectRef bogus{"inproc://downed-host", "x", ""};
  EXPECT_FALSE(client->ping(bogus));
}

TEST(OrbTest, InterfaceReflection) {
  auto orb = Orb::create();
  const ObjectRef ref = orb->register_servant(make_calc());
  EXPECT_EQ(orb->invoke(ref, "_interface").as_string(), "Calc");
}

TEST(OrbTest, OnewayDeliversAndSwallowsErrors) {
  auto orb = Orb::create();
  auto counter = std::make_shared<std::atomic<int>>(0);
  auto servant = FunctionServant::make("Sink");
  servant->on("bump", [counter](const ValueList&) {
    ++*counter;
    return Value();
  });
  servant->on("explode", [](const ValueList&) -> Value { throw Error("boom"); });
  const ObjectRef ref = orb->register_servant(servant);
  orb->invoke_oneway(ref, "bump");
  orb->invoke_oneway(ref, "bump");
  EXPECT_EQ(counter->load(), 2);
  EXPECT_NO_THROW(orb->invoke_oneway(ref, "explode"));
  EXPECT_NO_THROW(orb->invoke_oneway(ObjectRef{"inproc://gone", "x", ""}, "op"));
}

TEST(OrbTest, InterfaceValidationRejectsUnknownOps) {
  auto orb = Orb::create();
  orb->interfaces().define_idl("interface Calc { number add(number a, number b); };");
  const ObjectRef ref = orb->register_servant(make_calc());
  EXPECT_DOUBLE_EQ(orb->invoke(ref, "add", {Value(1.0), Value(1.0)}).as_number(), 2.0);
  EXPECT_THROW(orb->invoke(ref, "echo", {Value(1.0)}), BadOperation)
      << "echo is not declared on interface Calc";
}

TEST(OrbTest, ValidationSkippedForUnknownInterfaces) {
  auto orb = Orb::create();
  const ObjectRef ref = orb->register_servant(make_calc());  // Calc not in IR
  EXPECT_NO_THROW(orb->invoke(ref, "echo", {Value(1.0)}));
}

TEST(OrbTest, SharedInterfaceRepository) {
  auto repo = std::make_shared<InterfaceRepository>();
  auto a = Orb::create({.name = "share-a", .interfaces = repo});
  auto b = Orb::create({.name = "share-b", .interfaces = repo});
  a->interfaces().define_idl("interface Shared { void op(); };");
  EXPECT_TRUE(b->interfaces().has("Shared"));
}

TEST(OrbTest, RequestsServedCounter) {
  auto orb = Orb::create();
  const ObjectRef ref = orb->register_servant(make_calc());
  const uint64_t before = orb->requests_served();
  orb->invoke(ref, "echo", {Value(1.0)});
  orb->invoke(ref, "echo", {Value(2.0)});
  EXPECT_EQ(orb->requests_served(), before + 2);
}

TEST(OrbTest, ConcurrentInvocations) {
  auto server = Orb::create();
  auto servant = FunctionServant::make("Counter");
  auto hits = std::make_shared<std::atomic<int>>(0);
  servant->on("hit", [hits](const ValueList&) {
    ++*hits;
    return Value();
  });
  const ObjectRef ref = server->register_servant(servant);
  constexpr int kThreads = 8;
  constexpr int kCalls = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto client = Orb::create();
      for (int i = 0; i < kCalls; ++i) client->invoke(ref, "hit", {});
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hits->load(), kThreads * kCalls);
}

// ---- ScriptServant (DSI / LuaCorba adapter) ---------------------------------

TEST(ScriptServantTest, DispatchesToScriptMethods) {
  auto engine = std::make_shared<script::ScriptEngine>();
  const Value obj = engine->eval1(R"(
    local counter = {count = 0}
    function counter:bump(by) self.count = self.count + by return self.count end
    function counter:get() return self.count end
    return counter
  )");
  auto orb = Orb::create();
  const ObjectRef ref =
      orb->register_servant(std::make_shared<ScriptServant>(engine, obj, "Counter"));
  EXPECT_DOUBLE_EQ(orb->invoke(ref, "bump", {Value(5.0)}).as_number(), 5.0);
  EXPECT_DOUBLE_EQ(orb->invoke(ref, "bump", {Value(3.0)}).as_number(), 8.0);
  EXPECT_DOUBLE_EQ(orb->invoke(ref, "get", {}).as_number(), 8.0);
}

TEST(ScriptServantTest, MissingMethodIsBadOperation) {
  auto engine = std::make_shared<script::ScriptEngine>();
  const Value obj = engine->eval1("return {}");
  auto orb = Orb::create();
  const ObjectRef ref = orb->register_servant(std::make_shared<ScriptServant>(engine, obj));
  EXPECT_THROW(orb->invoke(ref, "anything", {}), BadOperation);
}

TEST(ScriptServantTest, ScriptErrorsBecomeRemoteErrors) {
  auto engine = std::make_shared<script::ScriptEngine>();
  const Value obj = engine->eval1(R"(
    local o = {}
    function o:explode() error('script kaboom') end
    return o
  )");
  auto orb = Orb::create();
  const ObjectRef ref = orb->register_servant(std::make_shared<ScriptServant>(engine, obj));
  try {
    orb->invoke(ref, "explode", {});
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_NE(std::string(e.what()).find("script kaboom"), std::string::npos);
  }
}

TEST(ScriptServantTest, NonTableObjectRejected) {
  auto engine = std::make_shared<script::ScriptEngine>();
  EXPECT_THROW(ScriptServant(engine, Value(5.0)), TypeError);
}

TEST(ScriptServantTest, MethodsResolveThroughMetatablePrototype) {
  // The standard Lua class idiom: instance methods live on the prototype,
  // reached via __index. A servant built from an instance must find them.
  auto engine = std::make_shared<script::ScriptEngine>();
  const Value obj = engine->eval1(R"(
    local Account = {}
    Account.__index = Account
    function Account.new(b) return setmetatable({balance = b}, Account) end
    function Account:deposit(n) self.balance = self.balance + n return self.balance end
    return Account.new(100)
  )");
  auto orb = Orb::create();
  const ObjectRef ref =
      orb->register_servant(std::make_shared<ScriptServant>(engine, obj, "Account"));
  EXPECT_DOUBLE_EQ(orb->invoke(ref, "deposit", {Value(25.0)}).as_number(), 125.0);
  EXPECT_DOUBLE_EQ(orb->invoke(ref, "deposit", {Value(25.0)}).as_number(), 150.0);
}

TEST(ScriptServantTest, MethodAddedAtRuntimeBecomesCallable) {
  // The dynamic-extension property the paper leans on: server objects can
  // grow new operations while deployed.
  auto engine = std::make_shared<script::ScriptEngine>();
  engine->eval("server = {}");
  auto orb = Orb::create();
  const ObjectRef ref = orb->register_servant(
      std::make_shared<ScriptServant>(engine, engine->get_global("server")));
  EXPECT_THROW(orb->invoke(ref, "newop", {}), BadOperation);
  engine->eval("function server:newop() return 'extended' end");
  EXPECT_EQ(orb->invoke(ref, "newop", {}).as_string(), "extended");
}

// ---- ObjectHandle -------------------------------------------------------

TEST(ObjectHandleTest, CallThroughHandle) {
  auto orb = Orb::create();
  ObjectHandle handle(orb, orb->register_servant(make_calc()));
  EXPECT_TRUE(handle.valid());
  EXPECT_DOUBLE_EQ(handle.call("add", {Value(20.0), Value(22.0)}).as_number(), 42.0);
  EXPECT_TRUE(handle.ping());
}

TEST(ObjectHandleTest, EmptyHandleThrows) {
  ObjectHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(handle.ping());
  EXPECT_THROW(handle.call("op"), OrbError);
}

}  // namespace
}  // namespace adapt::orb
