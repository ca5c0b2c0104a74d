#include "apps/socialnetwork.h"

#include <gtest/gtest.h>

#include "fixtures.h"
#include "microsvc/cluster.h"
#include "scenario/generate.h"
#include "scenario/loader.h"
#include "sim/simulation.h"
#include "util/stats.h"
#include "workload/workload.h"

using grunt::Samples;

namespace grunt::apps {
namespace {

TEST(SocialNetwork, TopologyShape) {
  const auto app = MakeSocialNetwork({});
  EXPECT_EQ(app.name(), "socialnetwork");
  EXPECT_GE(app.service_count(), 25u);
  EXPECT_EQ(app.request_type_count(), 14u);  // 13 dynamic + 1 static
  EXPECT_EQ(app.PublicDynamicTypes().size(), 13u);
  // Key shared upstream services exist with small slot pools.
  for (const char* name : {"compose-post", "home-timeline", "user-timeline"}) {
    auto id = app.FindService(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_LE(app.service(*id).threads_per_replica, 32) << name;
  }
  // The gateway is effectively un-overflowable.
  EXPECT_GE(app.service(*app.FindService("nginx")).threads_per_replica, 1024);
}

TEST(SocialNetwork, OptionsValidation) {
  EXPECT_THROW(MakeSocialNetwork({0, 1.0,
                                  microsvc::ServiceTimeDist::kExponential}),
               std::invalid_argument);
  EXPECT_THROW(MakeSocialNetwork({1, 0.0,
                                  microsvc::ServiceTimeDist::kExponential}),
               std::invalid_argument);
}

TEST(SocialNetwork, ReplicaScaleGrowsBackendOnly) {
  const auto base = MakeSocialNetwork({});
  SocialNetworkOptions opts;
  opts.replica_scale = 2;
  const auto big = MakeSocialNetwork(opts);
  const auto cp = *big.FindService("compose-post");
  EXPECT_EQ(big.service(cp).initial_replicas,
            2 * base.service(cp).initial_replicas);
  const auto gw = *big.FindService("nginx");
  EXPECT_EQ(big.service(gw).initial_replicas, 1);
}

TEST(SocialNetwork, CapacityScaleShortensDemands) {
  const auto slow = MakeSocialNetwork({});
  SocialNetworkOptions opts;
  opts.capacity_scale = 2.0;
  const auto fast = MakeSocialNetwork(opts);
  const auto t = *slow.FindRequestType("compose/text");
  EXPECT_EQ(fast.request_type(t).hops[3].cpu_demand * 2,
            slow.request_type(t).hops[3].cpu_demand);
}

TEST(SocialNetwork, MixCoversAllTypesAndValidates) {
  const auto app = MakeSocialNetwork({});
  const auto mix = SocialNetworkMix(app);
  EXPECT_NO_THROW(mix.Validate());
  EXPECT_EQ(mix.types.size(), app.request_type_count());
  const auto nav = SocialNetworkNavigator(app);
  EXPECT_NO_THROW(nav.Validate());
}

TEST(SocialNetwork, BaselineIsHealthyAtReferenceLoad) {
  // 7000 users / 7 s think ~= 1000 req/s must be stable: bounded RT and no
  // runaway queues.
  sim::Simulation sim;
  const auto app = MakeSocialNetwork({});
  microsvc::Cluster cluster(sim, app, 3);
  const grunt::testing::CompletionLog completions(cluster);
  workload::ClosedLoopWorkload::Config wl;
  wl.users = 7000;
  wl.navigator = SocialNetworkNavigator(app);
  workload::ClosedLoopWorkload load(cluster, wl, 3);
  load.Start();
  sim.RunUntil(Sec(30));
  Samples rt;
  for (const auto& rec : completions) {
    if (rec.start >= Sec(10)) rt.Add(ToMillis(rec.end - rec.start));
  }
  ASSERT_GT(rt.count(), 10'000u);
  EXPECT_LT(rt.mean(), 60.0);
  EXPECT_LT(rt.Percentile(95), 200.0);
  EXPECT_LT(cluster.in_flight(), 600u);
}

microsvc::Application MakeMuBench(std::uint64_t seed,
                                  const scenario::MubenchParams& shape = {}) {
  return scenario::BuildApplication(
      scenario::GenerateMubench(seed, shape).topology);
}

TEST(MuBench, DeterministicPerSeed) {
  const auto a = MakeMuBench(1);
  const auto b = MakeMuBench(1);
  ASSERT_EQ(a.service_count(), b.service_count());
  ASSERT_EQ(a.request_type_count(), b.request_type_count());
  for (std::size_t i = 0; i < a.request_type_count(); ++i) {
    const auto& ta = a.request_type(static_cast<std::int32_t>(i));
    const auto& tb = b.request_type(static_cast<std::int32_t>(i));
    ASSERT_EQ(ta.hops.size(), tb.hops.size());
    for (std::size_t h = 0; h < ta.hops.size(); ++h) {
      EXPECT_EQ(ta.hops[h].cpu_demand, tb.hops[h].cpu_demand);
    }
  }
  const auto c = MakeMuBench(999);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.request_type_count() && !any_diff; ++i) {
    const auto& ta = a.request_type(static_cast<std::int32_t>(i));
    const auto& tc = c.request_type(static_cast<std::int32_t>(i));
    any_diff = ta.hops.size() != tc.hops.size();
    for (std::size_t h = 0; !any_diff && h < ta.hops.size(); ++h) {
      any_diff = ta.hops[h].cpu_demand != tc.hops[h].cpu_demand;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(MuBench, ExactServiceCountsAtPaperScales) {
  for (std::int32_t services : {62, 118, 196}) {
    const auto app = MakeMuBench(
        1, {.services = services, .groups = 3, .paths_per_group = 3});
    EXPECT_EQ(app.service_count(), static_cast<std::size_t>(services));
    EXPECT_EQ(app.PublicDynamicTypes().size(),
              3u * 3u + 1u /*upstream*/ + 2u /*singletons*/);
  }
}

TEST(MuBench, RejectsImpossibleShapes) {
  EXPECT_THROW(
      MakeMuBench(1, {.services = 10, .groups = 3, .paths_per_group = 3}),
      std::invalid_argument);
  EXPECT_THROW(MakeMuBench(1, {.paths_per_group = 1}), std::invalid_argument);
}

TEST(MuBench, MixIsUniformOverDynamicTypes) {
  // Uniform over the dynamic types in declaration order, except that the
  // heavyweight "-admin" endpoints are down-weighted to 0.25.
  for (std::int32_t services : {62, 118, 196}) {
    const auto spec = scenario::GenerateMubench(
        static_cast<std::uint64_t>(services), {.services = services});
    const auto app = scenario::BuildApplication(spec.topology);
    const auto mix = scenario::BuildRequestMix(app, spec.workload);
    EXPECT_NO_THROW(mix.Validate());
    const auto dynamic = app.PublicDynamicTypes();
    ASSERT_EQ(mix.types, dynamic) << services;
    ASSERT_EQ(mix.weights.size(), dynamic.size());
    for (std::size_t i = 0; i < dynamic.size(); ++i) {
      const auto& name = app.request_type(dynamic[i]).name;
      const bool admin = name.ends_with("-admin");
      EXPECT_DOUBLE_EQ(mix.weights[i], admin ? 0.25 : 1.0) << name;
    }
  }
}

}  // namespace
}  // namespace grunt::apps
