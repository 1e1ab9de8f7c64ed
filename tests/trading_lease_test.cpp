// Offer leases and agent heartbeats: crashed hosts' offers expire on their
// own, keeping trader information fresh (paper SIV: "we must guarantee that
// the trader has access to information about all available objects").
#include <gtest/gtest.h>

#include "core/infrastructure.h"

namespace adapt::trading {
namespace {

using orb::FunctionServant;

class LeaseTest : public ::testing::Test {
 protected:
  LeaseTest()
      : clock_(std::make_shared<SimClock>()),
        orb_(orb::Orb::create()),
        trader_(orb_, {.name = "lease-trader", .clock = clock_}) {
    trader_.types().add({.name = "Svc"});
    provider_ = orb_->register_servant(FunctionServant::make("Svc"));
  }

  std::string export_with_lease(double lease) {
    return trader_.export_offer("Svc", provider_, {}, lease);
  }

  std::shared_ptr<SimClock> clock_;
  orb::OrbPtr orb_;
  Trader trader_;
  ObjectRef provider_;
};

TEST_F(LeaseTest, UnleasedOffersNeverExpire) {
  export_with_lease(0);
  clock_->advance(1e9);
  EXPECT_EQ(trader_.query("Svc", "").size(), 1u);
  EXPECT_EQ(trader_.purge_expired(), 0u);
}

TEST_F(LeaseTest, LeasedOfferExpiresFromQueries) {
  export_with_lease(60.0);
  EXPECT_EQ(trader_.query("Svc", "").size(), 1u);
  clock_->advance(59.0);
  EXPECT_EQ(trader_.query("Svc", "").size(), 1u);
  clock_->advance(2.0);
  EXPECT_EQ(trader_.query("Svc", "").size(), 0u);
}

TEST_F(LeaseTest, RefreshExtendsLease) {
  const std::string id = export_with_lease(60.0);
  clock_->advance(50.0);
  trader_.refresh(id, 60.0);
  clock_->advance(50.0);  // t=100; would have expired at 60 without refresh
  EXPECT_EQ(trader_.query("Svc", "").size(), 1u);
  clock_->advance(70.0);  // t=170 > 110
  EXPECT_EQ(trader_.query("Svc", "").size(), 0u);
}

TEST_F(LeaseTest, RefreshCanMakePermanent) {
  const std::string id = export_with_lease(60.0);
  trader_.refresh(id, 0);
  clock_->advance(1e6);
  EXPECT_EQ(trader_.query("Svc", "").size(), 1u);
}

TEST_F(LeaseTest, RefreshExpiredOfferThrowsAndRemoves) {
  const std::string id = export_with_lease(10.0);
  clock_->advance(20.0);
  EXPECT_THROW(trader_.refresh(id, 60.0), UnknownOffer);
  EXPECT_EQ(trader_.offer_count(), 0u) << "expired offer dropped on failed refresh";
}

TEST_F(LeaseTest, PurgeRemovesOnlyExpired) {
  export_with_lease(10.0);
  export_with_lease(100.0);
  export_with_lease(0);
  clock_->advance(50.0);
  EXPECT_EQ(trader_.purge_expired(), 1u);
  EXPECT_EQ(trader_.offer_count(), 2u);
}

TEST_F(LeaseTest, ExpiredOffersLeaveTheIndexOnTheNextExport) {
  export_with_lease(10.0);
  clock_->advance(20.0);
  export_with_lease(10.0);
  EXPECT_EQ(trader_.offer_count(), 1u) << "the export purged the expired offer";
}

TEST_F(LeaseTest, LeaseViaRegisterServant) {
  auto client_orb = orb::Orb::create();
  TraderClient client(client_orb, trader_.lookup_ref(), trader_.register_ref());
  const std::string id = client.export_offer("Svc", provider_, {}, 30.0);
  clock_->advance(20.0);
  client.refresh(id, 30.0);
  clock_->advance(20.0);
  EXPECT_EQ(trader_.query("Svc", "").size(), 1u);
  clock_->advance(40.0);
  EXPECT_EQ(trader_.query("Svc", "").size(), 0u);
}

// ---- heartbeat through the full stack ------------------------------------

TEST(HeartbeatTest, AgentKeepsOffersAliveUntilItDies) {
  core::Infrastructure infra({.name = "hb-infra"});
  infra.trader().types().add({.name = "Svc"});
  infra.make_host("h");
  auto agent = infra.make_agent("h");
  const ObjectRef provider =
      infra.host_orb("h")->register_servant(FunctionServant::make("Svc"));
  agent->enable_heartbeat(/*period=*/30.0, /*lease=*/90.0);
  agent->export_offer("Svc", provider, {});

  // Alive: heartbeats every 30 s keep the 90 s lease fresh indefinitely.
  infra.run_for(600.0);
  EXPECT_EQ(infra.trader().query("Svc", "").size(), 1u);
  EXPECT_GT(agent->heartbeats_sent(), 10u);

  // "Crash" the agent (stop heartbeating without withdrawing).
  agent->disable_heartbeat();
  infra.run_for(91.0);
  EXPECT_EQ(infra.trader().query("Svc", "").size(), 0u)
      << "offer expired on its own after the host died";
}

TEST(HeartbeatTest, HeartbeatCoversPreexistingOffers) {
  core::Infrastructure infra({.name = "hb-pre"});
  infra.trader().types().add({.name = "Svc"});
  infra.make_host("h");
  auto agent = infra.make_agent("h");
  const ObjectRef provider =
      infra.host_orb("h")->register_servant(FunctionServant::make("Svc"));
  agent->export_offer("Svc", provider, {});  // permanent at first
  agent->enable_heartbeat(10.0, 30.0);       // now leased
  infra.run_for(200.0);
  EXPECT_EQ(infra.trader().query("Svc", "").size(), 1u);
  agent->disable_heartbeat();
  infra.run_for(31.0);
  EXPECT_EQ(infra.trader().query("Svc", "").size(), 0u);
}

TEST(HeartbeatTest, InvalidParametersRejected) {
  core::Infrastructure infra({.name = "hb-bad"});
  infra.make_host("h");
  auto agent = infra.make_agent("h");
  EXPECT_THROW(agent->enable_heartbeat(0, 10), Error);
  EXPECT_THROW(agent->enable_heartbeat(10, 0), Error);
}

TEST(HeartbeatTest, ProxyStopsSeeingDeadHost) {
  // End-to-end liveness: a proxy fails over to a live host after the dead
  // host's offer expires.
  core::Infrastructure infra({.name = "hb-proxy"});
  infra.trader().types().add({.name = "Svc"});
  for (const std::string name : {"live", "doomed"}) {
    infra.make_host(name);
    auto agent = infra.make_agent(name);
    auto servant = FunctionServant::make("Svc");
    servant->on("whoami", [name](const ValueList&) { return Value(name); });
    const ObjectRef provider = infra.host_orb(name)->register_servant(servant, "svc");
    agent->enable_heartbeat(30.0, 90.0);
    agent->export_offer("Svc", provider, {});
  }
  core::SmartProxyConfig cfg;
  cfg.service_type = "Svc";
  cfg.monitor_property = "";
  auto proxy = infra.make_proxy(cfg);
  // Select repeatedly; with "first" preference the doomed host may win now.
  ASSERT_TRUE(proxy->select());

  // Kill the "doomed" host: servant unregistered AND heartbeats stop.
  infra.host_orb("doomed")->unregister_servant("svc");
  infra.agent("doomed")->disable_heartbeat();
  infra.run_for(120.0);  // lease expires
  EXPECT_EQ(proxy->invoke("whoami").as_string(), "live");
  // Future selections can never pick the dead host again.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(proxy->select());
    EXPECT_EQ(proxy->invoke("whoami").as_string(), "live");
  }
}

}  // namespace
}  // namespace adapt::trading
