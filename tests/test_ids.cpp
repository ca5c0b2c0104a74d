#include "cloud/ids.h"

#include <gtest/gtest.h>

#include "apps/socialnetwork.h"
#include "attack/grunt_attack.h"
#include "attack/sim_target_client.h"
#include "fixtures.h"
#include "truth_profile.h"
#include "workload/workload.h"

namespace grunt::cloud {
namespace {

using grunt::testing::SingleChainApp;

struct Rig {
  sim::Simulation sim;
  microsvc::Application app = SingleChainApp();
  microsvc::Cluster cluster{sim, app, 1};
};

TEST(Ids, FlagsFastConsecutiveRequestsFromOneSession) {
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  // Same client sends two requests 1 s apart (< 3 s threshold).
  rig.sim.At(Sec(1), [&] {
    rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 77);
  });
  rig.sim.At(Sec(2), [&] {
    rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 77);
  });
  rig.sim.RunUntil(Sec(5));
  EXPECT_EQ(ids.CountAlerts(AlertRule::kInterRequestInterval), 1u);
  EXPECT_EQ(ids.attributed_attack_alerts(), 1u);
}

TEST(Ids, ToleratesHumanPacedSessions) {
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  for (int i = 0; i < 10; ++i) {
    rig.sim.At(Sec(4 * i + 1), [&] {
      rig.cluster.Submit(0, microsvc::RequestClass::kLegit, false, 5);
    });
  }
  rig.sim.RunUntil(Sec(60));
  EXPECT_EQ(ids.CountAlerts(AlertRule::kInterRequestInterval), 0u);
}

TEST(Ids, OneRequestPerBotEvadesTheIntervalRule) {
  // The Grunt bot-farm discipline: every burst request comes from a fresh
  // bot, so no session ever violates the inter-request threshold.
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  for (int i = 0; i < 100; ++i) {
    rig.sim.At(Ms(10 * i + 1000), [&, i] {
      rig.cluster.Submit(0, microsvc::RequestClass::kAttack, true,
                         1000 + static_cast<std::uint64_t>(i));
    });
  }
  rig.sim.RunUntil(Sec(10));
  EXPECT_EQ(ids.CountAlerts(AlertRule::kInterRequestInterval), 0u);
  EXPECT_EQ(ids.CountAlerts(AlertRule::kRateLimit), 0u);
}

TEST(Ids, RateLimitFlagsFloodFromOneIp) {
  Rig rig;
  Ids::Config cfg;
  cfg.rate_limit = 50;
  cfg.rate_window = Sec(60);
  cfg.min_inter_request = 0;  // isolate the rate rule
  Ids ids(rig.cluster, nullptr, nullptr, cfg);
  ids.Start();
  for (int i = 0; i < 120; ++i) {
    rig.sim.At(Ms(100 * i + 100), [&] {
      rig.cluster.Submit(0, microsvc::RequestClass::kAttack, true, 9);
    });
  }
  rig.sim.RunUntil(Sec(30));
  EXPECT_GE(ids.CountAlerts(AlertRule::kRateLimit), 2u);  // 120 / 50
  EXPECT_GE(ids.attributed_attack_alerts(), 2u);
}

TEST(Ids, ResourceSaturationRuleFiresOnSustainedSaturation) {
  Rig rig;
  ResourceMonitor monitor(rig.cluster, {Sec(1), "m"});
  Ids ids(rig.cluster, &monitor, nullptr, {});
  monitor.Start();
  ids.Start();
  const auto s1 = *rig.app.FindService("s1");
  // Saturate both cores for 6 s solid.
  for (int c = 0; c < 2; ++c) {
    rig.sim.At(Sec(1), [&, s1] {
      rig.cluster.service(s1).RunCpu(Sec(6), [] {});
    });
  }
  rig.sim.RunUntil(Sec(10));
  EXPECT_GE(ids.CountAlerts(AlertRule::kResourceSaturation), 1u);
}

TEST(Ids, SubSecondSaturationPulsesDoNotTripResourceRule) {
  Rig rig;
  ResourceMonitor monitor(rig.cluster, {Sec(1), "m"});
  Ids ids(rig.cluster, &monitor, nullptr, {});
  monitor.Start();
  ids.Start();
  const auto s1 = *rig.app.FindService("s1");
  for (SimTime t = Sec(1); t < Sec(30); t += Ms(1500)) {
    rig.sim.At(t, [&, s1] {
      for (int c = 0; c < 2; ++c) {
        rig.cluster.service(s1).RunCpu(Ms(450), [] {});
      }
    });
  }
  rig.sim.RunUntil(Sec(30));
  EXPECT_EQ(ids.CountAlerts(AlertRule::kResourceSaturation), 0u);
}

TEST(Ids, DegradationRuleSeesLongRtButHasNoClientAttribution) {
  Rig rig;
  ResponseTimeMonitor rt(rig.cluster, {Sec(1), "rt"});
  Ids ids(rig.cluster, nullptr, &rt, {});
  rt.Start();
  ids.Start();
  // Saturate s1 then send legit requests that will take > 1 s.
  const auto s1 = *rig.app.FindService("s1");
  rig.sim.At(Ms(100), [&] {
    for (int i = 0; i < 600; ++i) {
      rig.cluster.service(s1).RunCpu(Ms(10), [] {});
    }
    for (int i = 0; i < 5; ++i) {
      rig.cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
    }
  });
  rig.sim.RunUntil(Sec(10));
  EXPECT_GE(ids.CountAlerts(AlertRule::kServiceDegradation), 1u);
  // The rule counts degraded RT windows, not clients: one alert per window
  // whose mean is over the threshold, and none is attributed to a session.
  std::size_t degraded = 0;
  for (const TimePoint p : rt.legit_mean_ms()) {
    if (p.value >= Ids::Config{}.degradation_rt_ms) ++degraded;
  }
  EXPECT_EQ(ids.CountAlerts(AlertRule::kServiceDegradation), degraded);
  EXPECT_EQ(ids.attributed_attack_alerts(), 0u);
}

TEST(Ids, ContentChecksAlwaysPassOnWellFormedTraffic) {
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  EXPECT_TRUE(ids.content_checks_passed());
}

TEST(Ids, StoppedIdsIgnoresTraffic) {
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  ids.Stop();
  rig.sim.At(Sec(1), [&] {
    rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 7);
    rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 7);
  });
  rig.sim.RunUntil(Sec(3));
  EXPECT_TRUE(ids.alerts().empty());
}

// The census is one counter per rule, however many alerts fire.
static_assert(sizeof(AlertCensus) == kAlertRuleCount * sizeof(std::size_t));

TEST(Ids, AlertCensusOnSeededGruntCampaign) {
  // One seeded SocialNetwork run with a short Grunt burst phase. Thresholds
  // are tightened so every rule fires at this small scale; the counts are
  // pinned so a change to what an alert records cannot silently change
  // which alerts fire.
  sim::Simulation sim;
  const auto app = apps::MakeSocialNetwork({});
  microsvc::Cluster cluster(sim, app, 5);
  ResourceMonitor monitor(cluster, {Sec(1), "m"});
  ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  Ids::Config cfg;
  cfg.rate_limit = 10;
  cfg.rate_window = Sec(60);
  cfg.saturation_threshold = 0.8;
  cfg.saturation_samples = 1;
  cfg.degradation_rt_ms = 100.0;
  Ids ids(cluster, &monitor, &rt, cfg);
  monitor.Start();
  rt.Start();
  ids.Start();
  constexpr std::int32_t kUsers = 2000;
  workload::ClosedLoopWorkload::Config wl;
  wl.users = kUsers;
  wl.navigator = apps::SocialNetworkNavigator(app);
  workload::ClosedLoopWorkload load(cluster, wl, 5);
  load.Start();
  sim.RunUntil(Sec(20));

  attack::SimTargetClient client(cluster);
  attack::GruntConfig gc;
  gc.max_groups = 1;
  attack::GruntAttack grunt(client, gc);
  bool done = false;
  // Closed loop with a 7 s mean think time: users / 7 legit req/s.
  grunt.RunWithProfile(grunt::testing::TruthProfile(
                           app, apps::SocialNetworkMix(app), kUsers / 7.0),
                       Sec(20),
                       [&](const attack::GruntReport&) { done = true; });
  while (!done && sim.Now() < Sec(600)) sim.RunUntil(sim.Now() + Sec(5));
  ASSERT_TRUE(done);
  ASSERT_GT(grunt.report().attack_requests, 0u);

  EXPECT_EQ(ids.CountAlerts(AlertRule::kInterRequestInterval), 8361u);
  EXPECT_EQ(ids.CountAlerts(AlertRule::kRateLimit), 1089u);
  EXPECT_EQ(ids.CountAlerts(AlertRule::kResourceSaturation), 1u);
  EXPECT_EQ(ids.CountAlerts(AlertRule::kServiceDegradation), 32u);
  EXPECT_EQ(ids.attributed_attack_alerts(), 150u);
  EXPECT_EQ(ids.alerts().size(), 9483u);
}

}  // namespace
}  // namespace grunt::cloud
