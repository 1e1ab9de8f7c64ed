// Trader tests: service types, offer lifecycle, queries with constraints and
// preferences, dynamic properties, policies, remote clients,
// re-entrant evaluators, the parse cache, and ordering on a mixed market.
#include "trading/trader.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

namespace adapt::trading {
namespace {

using orb::FunctionServant;
using orb::Orb;
using orb::OrbPtr;

class TraderTest : public ::testing::Test {
 protected:
  TraderTest() : orb_(Orb::create()), trader_(orb_, {.name = "t1"}) {
    ServiceTypeDef type;
    type.name = "LoadService";
    type.interface = "";
    type.properties = {
        {"LoadAvg", "number", PropertyDef::Mode::Normal},
        {"Host", "string", PropertyDef::Mode::Mandatory},
        {"Arch", "string", PropertyDef::Mode::MandatoryReadonly},
    };
    trader_.types().add(type);
  }

  /// Exports an offer backed by a trivial servant; returns the offer id.
  std::string export_host(const std::string& host, double load,
                          const std::string& arch = "x86") {
    auto servant = FunctionServant::make("");
    servant->on("hello", [](const ValueList&) { return Value("hi"); });
    const ObjectRef provider = orb_->register_servant(servant);
    PropertyMap props;
    props["LoadAvg"] = OfferedProperty(Value(load));
    props["Host"] = OfferedProperty(Value(host));
    props["Arch"] = OfferedProperty(Value(arch));
    return trader_.export_offer("LoadService", provider, std::move(props));
  }

  OrbPtr orb_;
  Trader trader_;
};

// ---- service types ----------------------------------------------------------

TEST_F(TraderTest, TypeRepositoryBasics) {
  EXPECT_TRUE(trader_.types().has("LoadService"));
  EXPECT_FALSE(trader_.types().has("Nothing"));
  EXPECT_THROW(trader_.types().add({.name = "LoadService"}), DuplicateServiceType);
}

TEST_F(TraderTest, SubtypesParticipateInQueries) {
  ServiceTypeDef sub;
  sub.name = "FastLoadService";
  sub.supertypes = {"LoadService"};
  trader_.types().add(sub);
  EXPECT_TRUE(trader_.types().is_subtype("FastLoadService", "LoadService"));

  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h1"));
  props["Arch"] = OfferedProperty(Value("arm"));
  trader_.export_offer("FastLoadService", provider, props);

  EXPECT_EQ(trader_.query("LoadService", "").size(), 1u);
  LookupPolicies exact;
  exact.exact_type_match = true;
  EXPECT_EQ(trader_.query("LoadService", "", "", {}, exact).size(), 0u);
  EXPECT_EQ(trader_.query("FastLoadService", "").size(), 1u);
}

TEST_F(TraderTest, SubtypePropertyConflictRejected) {
  ServiceTypeDef bad;
  bad.name = "BadSub";
  bad.supertypes = {"LoadService"};
  bad.properties = {{"LoadAvg", "string", PropertyDef::Mode::Normal}};
  EXPECT_THROW(trader_.types().add(bad), PropertyMismatch);
}

TEST_F(TraderTest, RemoveTypeWithSubtypesRejected) {
  ServiceTypeDef sub;
  sub.name = "Sub";
  sub.supertypes = {"LoadService"};
  trader_.types().add(sub);
  EXPECT_THROW(trader_.types().remove("LoadService"), TradingError);
  trader_.types().remove("Sub");
  EXPECT_NO_THROW(trader_.types().remove("LoadService"));
}

// ---- offer lifecycle --------------------------------------------------------

TEST_F(TraderTest, ExportAndDescribe) {
  const std::string id = export_host("node-1", 12.0);
  const ServiceOffer offer = trader_.describe(id);
  EXPECT_EQ(offer.service_type, "LoadService");
  EXPECT_DOUBLE_EQ(offer.properties.at("LoadAvg").static_value().as_number(), 12.0);
  EXPECT_EQ(trader_.offer_count(), 1u);
}

TEST_F(TraderTest, ExportValidatesServiceType) {
  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  EXPECT_THROW(trader_.export_offer("NoSuchType", provider, {}), UnknownServiceType);
}

TEST_F(TraderTest, ExportValidatesMandatoryProperties) {
  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  PropertyMap props;  // Host and Arch are mandatory
  props["LoadAvg"] = OfferedProperty(Value(1.0));
  EXPECT_THROW(trader_.export_offer("LoadService", provider, props), PropertyMismatch);
}

TEST_F(TraderTest, ExportValidatesPropertyTypes) {
  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value(42.0));  // must be string
  props["Arch"] = OfferedProperty(Value("x86"));
  EXPECT_THROW(trader_.export_offer("LoadService", provider, props), PropertyMismatch);
}

TEST_F(TraderTest, ExportValidatesInterfaceConformance) {
  orb_->interfaces().define_idl(R"(
    interface Base { void ping(); };
    interface Conforming : Base { void extra(); };
    interface Unrelated { void nope(); };
  )");
  ServiceTypeDef type;
  type.name = "TypedService";
  type.interface = "Base";
  trader_.types().add(type);

  const ObjectRef good = orb_->register_servant(FunctionServant::make("Conforming"));
  const ObjectRef bad = orb_->register_servant(FunctionServant::make("Unrelated"));
  EXPECT_NO_THROW(trader_.export_offer("TypedService", good, {}));
  EXPECT_THROW(trader_.export_offer("TypedService", bad, {}), PropertyMismatch);
}

TEST_F(TraderTest, WithdrawRemovesOffer) {
  const std::string id = export_host("node-1", 10.0);
  trader_.withdraw(id);
  EXPECT_EQ(trader_.offer_count(), 0u);
  EXPECT_THROW(trader_.withdraw(id), UnknownOffer);
  EXPECT_THROW(trader_.describe(id), UnknownOffer);
}

TEST_F(TraderTest, WithdrawProviderRemovesAllItsOffers) {
  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  trader_.export_offer("LoadService", provider, props);
  trader_.export_offer("LoadService", provider, props);
  export_host("other", 1.0);
  EXPECT_EQ(trader_.withdraw_provider(provider), 2u);
  EXPECT_EQ(trader_.offer_count(), 1u);
}

TEST_F(TraderTest, ModifyChangesProperties) {
  const std::string id = export_host("node-1", 10.0);
  PropertyMap changes;
  changes["LoadAvg"] = OfferedProperty(Value(99.0));
  trader_.modify(id, changes);
  EXPECT_DOUBLE_EQ(trader_.describe(id).properties.at("LoadAvg").static_value().as_number(),
                   99.0);
}

TEST_F(TraderTest, ModifyReadonlyRejected) {
  const std::string id = export_host("node-1", 10.0, "sparc");
  PropertyMap changes;
  changes["Arch"] = OfferedProperty(Value("x86"));
  EXPECT_THROW(trader_.modify(id, changes), PropertyMismatch);
}

TEST_F(TraderTest, ModifyIsAllOrNothing) {
  const std::string id = export_host("node-1", 10.0);
  // "Aa" is undeclared and valid; it sorts before the readonly "Arch", so a
  // change-by-change modify would apply it before rejecting "Arch".
  EXPECT_THROW(trader_.modify(id, {{"Aa", OfferedProperty(Value(1.0))},
                                   {"Arch", OfferedProperty(Value("x86"))}}),
               PropertyMismatch);
  // Likewise a valid change ahead of an ill-typed one.
  EXPECT_THROW(trader_.modify(id, {{"Aa", OfferedProperty(Value(1.0))},
                                   {"Host", OfferedProperty(Value(5.0))}}),
               PropertyMismatch);
  const ServiceOffer offer = trader_.describe(id);
  EXPECT_EQ(offer.properties.count("Aa"), 0u);
  EXPECT_EQ(offer.properties.at("Host").static_value().as_string(), "node-1");
  EXPECT_EQ(offer.properties.size(), 3u);
  EXPECT_EQ(trader_.query("LoadService", "exist Aa").size(), 0u);
}

// ---- queries ---------------------------------------------------------------

TEST_F(TraderTest, QueryWithConstraint) {
  export_host("light", 10.0);
  export_host("heavy", 90.0);
  const auto results = trader_.query("LoadService", "LoadAvg < 50");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "light");
}

TEST_F(TraderTest, QueryUnknownTypeThrows) {
  EXPECT_THROW(trader_.query("NoType", ""), UnknownServiceType);
}

TEST_F(TraderTest, QueryBadConstraintThrows) {
  EXPECT_THROW(trader_.query("LoadService", "LoadAvg <"), IllegalConstraint);
}

TEST_F(TraderTest, MalformedQueriesThrowOnEveryRepeat) {
  export_host("node", 5.0);
  // Text that fails to parse is never cached: each repeat throws again.
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(trader_.query("LoadService", "LoadAvg <"), IllegalConstraint);
    EXPECT_THROW(trader_.query("LoadService", "", "min LoadAvg <"), IllegalPreference);
    EXPECT_THROW(trader_.query("LoadService", "", "sideways"), IllegalPreference);
    EXPECT_EQ(trader_.query("LoadService", "LoadAvg < 50", "min LoadAvg").size(), 1u);
  }
}

TEST_F(TraderTest, MoreDistinctQueriesThanTheParseCacheHolds) {
  for (int i = 0; i < 10; ++i) export_host("h" + std::to_string(i), i);
  const int distinct = static_cast<int>(3 * ParseCache::kCapacity);
  // Two passes in opposite orders: the second mixes evicted and cached
  // entries, and every answer must still be the fresh parse's.
  for (int pass = 0; pass < 2; ++pass) {
    for (int n = 0; n < distinct; ++n) {
      const int i = pass == 0 ? n : distinct - 1 - n;
      const int bound = i % 11;
      const std::string constraint =
          "LoadAvg < " + std::to_string(bound) + " and Host != 'x" + std::to_string(i) + "'";
      const std::string preference = "max LoadAvg + " + std::to_string(i);
      const auto results = trader_.query("LoadService", constraint, preference);
      ASSERT_EQ(results.size(), static_cast<size_t>(bound)) << constraint;
      if (bound > 0) {
        EXPECT_DOUBLE_EQ(results[0].properties.at("LoadAvg").as_number(), bound - 1)
            << preference;
      }
    }
  }
}

TEST_F(TraderTest, QueryMinPreferenceOrders) {
  export_host("c", 30.0);
  export_host("a", 10.0);
  export_host("b", 20.0);
  const auto results = trader_.query("LoadService", "", "min LoadAvg");
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "a");
  EXPECT_EQ(results[1].properties.at("Host").as_string(), "b");
  EXPECT_EQ(results[2].properties.at("Host").as_string(), "c");
}

TEST_F(TraderTest, QueryMaxPreferenceOrders) {
  export_host("a", 10.0);
  export_host("b", 20.0);
  const auto results = trader_.query("LoadService", "", "max LoadAvg");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "b");
}

TEST_F(TraderTest, QueryWithPreferencePutsMatchesFirst) {
  export_host("busy", 80.0);
  export_host("idle", 5.0);
  const auto results = trader_.query("LoadService", "", "with LoadAvg < 50");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "idle");
  EXPECT_EQ(results[1].properties.at("Host").as_string(), "busy");
}

TEST_F(TraderTest, QueryFirstPreferenceKeepsRegistrationOrder) {
  export_host("one", 50.0);
  export_host("two", 10.0);
  const auto results = trader_.query("LoadService", "");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "one");
}

TEST_F(TraderTest, QueryUnscorableOffersGoLast) {
  // An offer without the preference property sorts after scored ones.
  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("noload"));
  props["Arch"] = OfferedProperty(Value("x86"));
  trader_.export_offer("LoadService", provider, props);
  export_host("scored", 25.0);
  const auto results = trader_.query("LoadService", "", "min LoadAvg");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "scored");
  EXPECT_EQ(results[1].properties.at("Host").as_string(), "noload");
}

TEST_F(TraderTest, QueryRandomPreferenceIsDeterministicPerSeed) {
  for (int i = 0; i < 8; ++i) export_host("h" + std::to_string(i), i);
  auto orb2 = Orb::create();
  Trader other(orb2, {.name = "t-same-seed"});
  ServiceTypeDef type;
  type.name = "LoadService";
  type.properties = {{"Host", "string", PropertyDef::Mode::Normal}};
  other.types().add(type);
  // Same seed, same offers => same shuffle order.
  auto servant = FunctionServant::make("");
  for (int i = 0; i < 8; ++i) {
    PropertyMap props;
    props["Host"] = OfferedProperty(Value("h" + std::to_string(i)));
    other.export_offer("LoadService", orb2->register_servant(servant, "s" + std::to_string(i)),
                       props);
  }
  const auto r1 = trader_.query("LoadService", "", "random");
  const auto r2 = other.query("LoadService", "", "random");
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].properties.at("Host").as_string(), r2[i].properties.at("Host").as_string());
  }
}

TEST_F(TraderTest, ReturnCardLimitsResults) {
  for (int i = 0; i < 10; ++i) export_host("h" + std::to_string(i), i);
  LookupPolicies policies;
  policies.return_card = 3;
  EXPECT_EQ(trader_.query("LoadService", "", "", {}, policies).size(), 3u);
}

TEST_F(TraderTest, ReturnCardBuildsOnlyReturnedResults) {
  // A dynamic property that only the returned properties read is evaluated
  // for the offers that are returned, not for every match.
  auto calls = std::make_shared<int>(0);
  auto evaluator = FunctionServant::make("DynamicPropEval");
  evaluator->on("evalDP", [calls](const ValueList&) {
    ++*calls;
    return Value(1.0);
  });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  for (int i = 0; i < 5; ++i) {
    PropertyMap props;
    props["Host"] = OfferedProperty(Value("h" + std::to_string(i)));
    props["Arch"] = OfferedProperty(Value("x86"));
    props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
    trader_.export_offer("LoadService", orb_->register_servant(FunctionServant::make("")),
                         props);
  }
  LookupPolicies policies;
  policies.return_card = 2;
  const auto results = trader_.query("LoadService", "exist Host", "", {}, policies);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[1].properties.at("LoadAvg").as_number(), 1.0);
  EXPECT_EQ(*calls, 2);
}

TEST_F(TraderTest, SearchCardLimitsConsideration) {
  for (int i = 0; i < 10; ++i) export_host("h" + std::to_string(i), i);
  LookupPolicies policies;
  policies.search_card = 4;
  // Only the first 4 registered offers are considered at all.
  const auto results = trader_.query("LoadService", "LoadAvg >= 0", "", {}, policies);
  EXPECT_EQ(results.size(), 4u);
}

TEST_F(TraderTest, DesiredPropertiesFilterReturnedProps) {
  export_host("node", 5.0);
  const auto results = trader_.query("LoadService", "", "", {"Host"});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].properties.size(), 1u);
  EXPECT_EQ(results[0].properties.count("Host"), 1u);
}

// ---- dynamic properties ----------------------------------------------------

TEST_F(TraderTest, DynamicPropertyEvaluatedAtLookup) {
  auto load = std::make_shared<double>(75.0);
  auto evaluator = FunctionServant::make("DynamicPropEval");
  evaluator->on("evalDP", [load](const ValueList&) { return Value(*load); });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);

  auto servant = FunctionServant::make("");
  const ObjectRef provider = orb_->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("dyn"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", provider, props);

  EXPECT_EQ(trader_.query("LoadService", "LoadAvg < 50").size(), 0u);
  *load = 20.0;  // live value changes; next lookup sees it
  const auto results = trader_.query("LoadService", "LoadAvg < 50");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].properties.at("LoadAvg").as_number(), 20.0);
}

TEST_F(TraderTest, DynamicPropertyReceivesNameAndExtra) {
  ValueList captured;
  auto evaluator = FunctionServant::make("DynamicPropEval");
  auto capture = std::make_shared<ValueList>();
  evaluator->on("evalDP", [capture](const ValueList& args) {
    *capture = args;
    return Value(1.0);
  });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value("extra-data")});
  trader_.export_offer("LoadService", orb_->register_servant(servant), props);
  trader_.query("LoadService", "LoadAvg > 0");
  ASSERT_EQ(capture->size(), 2u);
  EXPECT_EQ((*capture)[0].as_string(), "LoadAvg");
  EXPECT_EQ((*capture)[1].as_string(), "extra-data");
}

TEST_F(TraderTest, DynamicPropertyCachedWithinOneQuery) {
  auto calls = std::make_shared<int>(0);
  auto evaluator = FunctionServant::make("DynamicPropEval");
  evaluator->on("evalDP", [calls](const ValueList&) {
    ++*calls;
    return Value(10.0);
  });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", orb_->register_servant(servant), props);
  // Constraint + min preference + returned props all touch LoadAvg.
  trader_.query("LoadService", "LoadAvg < 50", "min LoadAvg");
  EXPECT_EQ(*calls, 1) << "one evalDP per offer per query";
}

TEST_F(TraderTest, UseDynamicPropertiesPolicyOff) {
  auto evaluator = FunctionServant::make("DynamicPropEval");
  auto calls = std::make_shared<int>(0);
  evaluator->on("evalDP", [calls](const ValueList&) {
    ++*calls;
    return Value(10.0);
  });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", orb_->register_servant(servant), props);
  LookupPolicies policies;
  policies.use_dynamic_properties = false;
  EXPECT_EQ(trader_.query("LoadService", "LoadAvg < 50", "", {}, policies).size(), 0u)
      << "dynamic property treated as undefined";
  EXPECT_EQ(*calls, 0);
}

TEST_F(TraderTest, FailingDynamicPropertyMeansUndefined) {
  auto evaluator = FunctionServant::make("DynamicPropEval");
  evaluator->on("evalDP", [](const ValueList&) -> Value { throw Error("down"); });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", orb_->register_servant(servant), props);
  EXPECT_EQ(trader_.query("LoadService", "LoadAvg < 50").size(), 0u);
  EXPECT_EQ(trader_.query("LoadService", "not exist LoadAvg").size(), 1u);
}

TEST_F(TraderTest, EvaluatorMayChangeTheMarketMidQuery) {
  // The evaluator withdraws, modifies and refreshes offers of the same
  // trader, and runs a nested query, while another thread exports. The
  // query must neither deadlock nor see any of it: it answers from the
  // snapshot it took.
  const std::string victim = export_host("victim", 10.0);
  auto evaluator = FunctionServant::make("DynamicPropEval");
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("dyn"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", orb_->register_servant(FunctionServant::make("")),
                       props);
  const std::string modified = export_host("modified", 20.0);
  const std::string refreshed = export_host("refreshed", 30.0);

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> exported{0};
  std::thread exporter([&] {
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < 50 && !stop.load(); ++i) {
      export_host("bg-" + std::to_string(i), 1.0);
      ++exported;
    }
  });

  int depth = 0;
  std::vector<OfferInfo> nested;
  evaluator->on("evalDP", [&](const ValueList&) -> Value {
    if (depth++ == 0) {
      trader_.withdraw(victim);
      trader_.modify(modified, {{"LoadAvg", OfferedProperty(Value(99.0))}});
      trader_.refresh(refreshed, 60);
      nested = trader_.query("LoadService", "LoadAvg < 50", "min LoadAvg", {"Host"});
      go = true;
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (exported.load() == 0 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
    --depth;
    return Value(5.0);
  });

  const auto results = trader_.query("LoadService", "LoadAvg < 50", "", {"Host", "LoadAvg"});
  stop = true;
  go = true;
  exporter.join();
  EXPECT_GT(exported.load(), 0) << "the exporter ran during the query";

  ASSERT_EQ(results.size(), 4u) << "exports after the snapshot are not seen";
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "victim");
  EXPECT_EQ(results[1].properties.at("Host").as_string(), "dyn");
  EXPECT_DOUBLE_EQ(results[1].properties.at("LoadAvg").as_number(), 5.0);
  EXPECT_EQ(results[2].properties.at("Host").as_string(), "modified");
  EXPECT_DOUBLE_EQ(results[2].properties.at("LoadAvg").as_number(), 20.0)
      << "the snapshot keeps the value from before the modify";
  EXPECT_EQ(results[3].properties.at("Host").as_string(), "refreshed");

  // The nested query ran after the withdraw and the modify.
  ASSERT_EQ(nested.size(), 2u);
  EXPECT_EQ(nested[0].properties.at("Host").as_string(), "dyn");
  EXPECT_EQ(nested[1].properties.at("Host").as_string(), "refreshed");

  // The market itself did change.
  EXPECT_THROW(trader_.describe(victim), UnknownOffer);
  EXPECT_DOUBLE_EQ(
      trader_.describe(modified).properties.at("LoadAvg").static_value().as_number(), 99.0);
  EXPECT_EQ(trader_.offer_count(), 3u + static_cast<size_t>(exported.load()));
}

// ---- remote access through servants -----------------------------------------

TEST_F(TraderTest, RemoteClientRoundtrip) {
  export_host("via-servant", 7.0);
  auto client_orb = Orb::create();
  TraderClient client(client_orb, trader_.lookup_ref(), trader_.register_ref());
  const auto results = client.query("LoadService", "LoadAvg < 10", "min LoadAvg");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].properties.at("Host").as_string(), "via-servant");
  EXPECT_EQ(results[0].service_type, "LoadService");
  EXPECT_FALSE(results[0].provider.empty());
}

TEST_F(TraderTest, RemoteExportAndWithdraw) {
  auto client_orb = Orb::create();
  TraderClient client(client_orb, trader_.lookup_ref(), trader_.register_ref());
  auto servant = FunctionServant::make("");
  const ObjectRef provider = client_orb->register_servant(servant);
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("remote-reg"));
  props["Arch"] = OfferedProperty(Value("riscv"));
  props["LoadAvg"] = OfferedProperty(Value(3.0));
  const std::string id = client.export_offer("LoadService", provider, props);
  EXPECT_EQ(trader_.offer_count(), 1u);
  client.modify(id, {{"LoadAvg", OfferedProperty(Value(8.0))}});
  EXPECT_DOUBLE_EQ(trader_.describe(id).properties.at("LoadAvg").static_value().as_number(),
                   8.0);
  client.withdraw(id);
  EXPECT_EQ(trader_.offer_count(), 0u);
}

TEST_F(TraderTest, RemoteExportOfDynamicProperty) {
  auto client_orb = Orb::create();
  auto evaluator = FunctionServant::make("DynamicPropEval");
  evaluator->on("evalDP", [](const ValueList&) { return Value(4.0); });
  const ObjectRef eval_ref = client_orb->register_servant(evaluator);
  TraderClient client(client_orb, trader_.lookup_ref(), trader_.register_ref());
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  client.export_offer("LoadService", client_orb->register_servant(servant), props);
  const auto results = trader_.query("LoadService", "LoadAvg == 4");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].properties.at("LoadAvg").as_number(), 4.0);
}

TEST_F(TraderTest, HopCountIsOffTheWireAndIgnoredFromOlderPeers) {
  const Value wire = Trader::policies_to_value(LookupPolicies{});
  ASSERT_TRUE(wire.is_table());
  EXPECT_TRUE(wire.as_table()->get(Value("hop_count")).is_nil());

  // An older peer's policies table still carries hop_count.
  export_host("local", 1.0);
  const Value old_policies = Trader::policies_to_value(LookupPolicies{});
  old_policies.as_table()->set(Value("hop_count"), Value(3.0));
  auto client_orb = Orb::create();
  const Value reply = client_orb->invoke(
      trader_.lookup_ref(), "query",
      {Value("LoadService"), Value(""), Value(""), Value(), old_policies});
  ASSERT_TRUE(reply.is_table());
  ASSERT_EQ(reply.as_table()->length(), 1);
  EXPECT_EQ(Trader::offer_info_from_value(reply.as_table()->geti(1))
                .properties.at("Host")
                .as_string(),
            "local");
}

// ---- Admin interface --------------------------------------------------

TEST_F(TraderTest, AdminClampsReturnCard) {
  for (int i = 0; i < 10; ++i) export_host("h" + std::to_string(i), i);
  TraderAdminSettings admin;
  admin.max_return_card = 4;
  trader_.set_admin(admin);
  LookupPolicies policies;
  policies.return_card = 100;  // importer asks for more than allowed
  EXPECT_EQ(trader_.query("LoadService", "", "", {}, policies).size(), 4u);
}

TEST_F(TraderTest, AdminClampsSearchCard) {
  for (int i = 0; i < 10; ++i) export_host("h" + std::to_string(i), i);
  TraderAdminSettings admin;
  admin.max_search_card = 3;
  trader_.set_admin(admin);
  EXPECT_EQ(trader_.query("LoadService", "LoadAvg >= 0").size(), 3u);
}

TEST_F(TraderTest, AdminDisablesDynamicProperties) {
  auto evaluator = FunctionServant::make("DynamicPropEval");
  auto calls = std::make_shared<int>(0);
  evaluator->on("evalDP", [calls](const ValueList&) {
    ++*calls;
    return Value(1.0);
  });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", orb_->register_servant(servant), props);
  TraderAdminSettings admin;
  admin.supports_dynamic_properties = false;
  trader_.set_admin(admin);
  EXPECT_EQ(trader_.query("LoadService", "LoadAvg > 0").size(), 0u);
  EXPECT_EQ(*calls, 0) << "globally disabled: no evalDP callbacks";
}

TEST_F(TraderTest, DynamicEvalCounter) {
  auto evaluator = FunctionServant::make("DynamicPropEval");
  evaluator->on("evalDP", [](const ValueList&) { return Value(1.0); });
  const ObjectRef eval_ref = orb_->register_servant(evaluator);
  auto servant = FunctionServant::make("");
  PropertyMap props;
  props["Host"] = OfferedProperty(Value("h"));
  props["Arch"] = OfferedProperty(Value("x86"));
  props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_ref, Value()});
  trader_.export_offer("LoadService", orb_->register_servant(servant), props);
  const uint64_t before = trader_.dynamic_evals();
  trader_.query("LoadService", "LoadAvg > 0");
  EXPECT_EQ(trader_.dynamic_evals(), before + 1);
}


// ---- ordering on a mixed market -------------------------------------------
//
// Static and dynamic offers, a subtype offer, a failing evaluator, an
// expired lease, tied keys and a search_card below the offer count. Each
// query's expected results, order and evalDP count were recorded from the
// trader as it was before its lookup path kept immutable offers, cached
// parses and evaluated through slots; they pin that the rebuild changed
// none of them.

class MarketTest : public ::testing::Test {
 protected:
  MarketTest()
      : clock_(std::make_shared<SimClock>()),
        orb_(Orb::create()),
        trader_(orb_, {.name = "market", .rng_seed = 7, .clock = clock_}) {
    ServiceTypeDef type;
    type.name = "LoadService";
    type.properties = {{"LoadAvg", "number", PropertyDef::Mode::Normal},
                       {"Host", "string", PropertyDef::Mode::Mandatory}};
    trader_.types().add(type);
    ServiceTypeDef sub;
    sub.name = "FastLoadService";
    sub.supertypes = {"LoadService"};
    trader_.types().add(sub);

    // One evaluator serves every dynamic offer; `extra` names the host.
    auto evaluator = FunctionServant::make("DynamicPropEval");
    evaluator->on("evalDP", [loads = loads_](const ValueList& args) -> Value {
      const std::string& host = args.at(1).as_string();
      if (host == "dfail") throw Error("evaluator down");
      return Value(loads->at(host));
    });
    eval_ = orb_->register_servant(evaluator);
    provider_ = orb_->register_servant(FunctionServant::make(""));

    add("LoadService", "s1", Value(30.0), "eu");
    add_dynamic("d1", 20.0, "us");
    add("FastLoadService", "sub1", Value(10.0), "eu");
    add("LoadService", "s2", Value(30.0), "us");
    add("LoadService", "exp", Value(5.0), "eu", /*lease=*/1.0);
    add_dynamic("d2", 45.0, "eu");
    add("LoadService", "noload", Value(), "us");
    add_dynamic("dfail", 0.0, "eu");
    add("LoadService", "s3", Value(70.0), "eu");
    add_dynamic("d3", 30.0, "us");
    add("LoadService", "s4", Value(15.0), "");
    clock_->advance(2.0);  // "exp"'s lease has run out
  }

  void add(const std::string& type, const std::string& host, const Value& load,
           const std::string& zone, double lease = 0) {
    PropertyMap props;
    props["Host"] = OfferedProperty(Value(host));
    if (!load.is_nil()) props["LoadAvg"] = OfferedProperty(load);
    if (!zone.empty()) props["Zone"] = OfferedProperty(Value(zone));
    trader_.export_offer(type, provider_, std::move(props), lease);
  }

  void add_dynamic(const std::string& host, double load, const std::string& zone) {
    (*loads_)[host] = load;
    PropertyMap props;
    props["Host"] = OfferedProperty(Value(host));
    props["LoadAvg"] = OfferedProperty(DynamicProperty{eval_, Value(host)});
    props["Zone"] = OfferedProperty(Value(zone));
    trader_.export_offer("LoadService", provider_, std::move(props));
  }

  /// Runs a query and renders its results in order, each as its Host and
  /// its returned properties, followed by the number of evalDP calls made.
  std::string run(const std::string& constraint, const std::string& preference,
                  const std::vector<std::string>& desired = {},
                  const LookupPolicies& policies = {}) {
    const uint64_t before = trader_.dynamic_evals();
    const auto results = trader_.query("LoadService", constraint, preference, desired, policies);
    std::string out;
    for (const OfferInfo& info : results) {
      const auto host = info.properties.find("Host");
      out += host != info.properties.end() ? host->second.as_string() : info.offer_id;
      out += '{';
      for (const auto& [name, value] : info.properties) {
        if (name != "Host") out += name + '=' + value.str() + ';';
      }
      out += "} ";
    }
    return out + "evalDP=" + std::to_string(trader_.dynamic_evals() - before);
  }

  std::shared_ptr<SimClock> clock_;
  OrbPtr orb_;
  Trader trader_;
  std::shared_ptr<std::map<std::string, double>> loads_ =
      std::make_shared<std::map<std::string, double>>();
  ObjectRef eval_;
  ObjectRef provider_;
};

TEST_F(MarketTest, ResultsAndOrderMatchTheReference) {
  LookupPolicies narrow;
  narrow.search_card = 7;
  LookupPolicies exact;
  exact.exact_type_match = true;
  LookupPolicies static_only;
  static_only.use_dynamic_properties = false;

  EXPECT_EQ(run("", "first"),
            "s1{LoadAvg=30;Zone=eu;} d1{LoadAvg=20;Zone=us;} sub1{LoadAvg=10;Zone=eu;} "
            "s2{LoadAvg=30;Zone=us;} d2{LoadAvg=45;Zone=eu;} noload{Zone=us;} dfail{Zone=eu;} "
            "s3{LoadAvg=70;Zone=eu;} d3{LoadAvg=30;Zone=us;} s4{LoadAvg=15;} evalDP=3");
  EXPECT_EQ(run("LoadAvg < 40", "min LoadAvg"),
            "sub1{LoadAvg=10;Zone=eu;} s4{LoadAvg=15;} d1{LoadAvg=20;Zone=us;} "
            "s1{LoadAvg=30;Zone=eu;} s2{LoadAvg=30;Zone=us;} d3{LoadAvg=30;Zone=us;} evalDP=3");
  EXPECT_EQ(run("LoadAvg >= 15", "max LoadAvg"),
            "s3{LoadAvg=70;Zone=eu;} d2{LoadAvg=45;Zone=eu;} s1{LoadAvg=30;Zone=eu;} "
            "s2{LoadAvg=30;Zone=us;} d3{LoadAvg=30;Zone=us;} d1{LoadAvg=20;Zone=us;} "
            "s4{LoadAvg=15;} evalDP=3");
  EXPECT_EQ(run("exist Host", "with LoadAvg < 25"),
            "d1{LoadAvg=20;Zone=us;} sub1{LoadAvg=10;Zone=eu;} s4{LoadAvg=15;} "
            "s1{LoadAvg=30;Zone=eu;} s2{LoadAvg=30;Zone=us;} d2{LoadAvg=45;Zone=eu;} "
            "noload{Zone=us;} dfail{Zone=eu;} s3{LoadAvg=70;Zone=eu;} d3{LoadAvg=30;Zone=us;} "
            "evalDP=3");
  EXPECT_EQ(run("LoadAvg < 50", "min LoadAvg", {"Host", "LoadAvg"}, narrow),
            "sub1{LoadAvg=10;} d1{LoadAvg=20;} s1{LoadAvg=30;} s2{LoadAvg=30;} d2{LoadAvg=45;} "
            "evalDP=2");
  EXPECT_EQ(run("Zone == 'eu' or LoadAvg > 40", "max LoadAvg * 2 - 1"),
            "s3{LoadAvg=70;Zone=eu;} d2{LoadAvg=45;Zone=eu;} s1{LoadAvg=30;Zone=eu;} "
            "sub1{LoadAvg=10;Zone=eu;} dfail{Zone=eu;} evalDP=3");
  EXPECT_EQ(run("LoadAvg < 100", "min LoadAvg", {"Host"}),
            "sub1{} s4{} d1{} s1{} s2{} d3{} d2{} s3{} evalDP=3");
  EXPECT_EQ(run("not (Zone ~ 'us')", "with Zone == 'eu'", {}, exact),
            "s1{LoadAvg=30;Zone=eu;} d2{LoadAvg=45;Zone=eu;} dfail{Zone=eu;} "
            "s3{LoadAvg=70;Zone=eu;} evalDP=1");
  EXPECT_EQ(run("exist Zone", "min LoadAvg", {}, static_only),
            "sub1{LoadAvg=10;Zone=eu;} s1{LoadAvg=30;Zone=eu;} s2{LoadAvg=30;Zone=us;} "
            "s3{LoadAvg=70;Zone=eu;} d1{Zone=us;} d2{Zone=eu;} noload{Zone=us;} dfail{Zone=eu;} "
            "d3{Zone=us;} evalDP=0");
  EXPECT_EQ(run("LoadAvg <= 30", "random"),
            "sub1{LoadAvg=10;Zone=eu;} s1{LoadAvg=30;Zone=eu;} s2{LoadAvg=30;Zone=us;} "
            "d3{LoadAvg=30;Zone=us;} d1{LoadAvg=20;Zone=us;} s4{LoadAvg=15;} evalDP=3");
  EXPECT_EQ(run("", "random", {"Host", "Zone"}),
            "s3{Zone=eu;} s4{} s1{Zone=eu;} sub1{Zone=eu;} d3{Zone=us;} dfail{Zone=eu;} "
            "noload{Zone=us;} d1{Zone=us;} d2{Zone=eu;} s2{Zone=us;} evalDP=0");
}

}  // namespace
}  // namespace adapt::trading
