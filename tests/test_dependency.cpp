#include "trace/dependency.h"

#include <gtest/gtest.h>

#include "apps/socialnetwork.h"
#include "fixtures.h"
#include "scenario/generate.h"
#include "scenario/loader.h"

namespace grunt::trace {
namespace {

std::vector<double> FlatRates(const microsvc::Application& app, double rate) {
  return std::vector<double>(app.request_type_count(), rate);
}

TEST(GroundTruth, ServiceUtilMatchesHandComputation) {
  const auto app = grunt::testing::TwoPathParallelApp();
  GroundTruth truth(app, {50.0, 25.0});
  const auto um = *app.FindService("um");
  const auto wa = *app.FindService("worker-a");
  // um: (50+25) * 1.4ms / 4 cores.
  EXPECT_NEAR(truth.ServiceUtil(um), 75 * 0.0014 / 4, 1e-9);
  // worker-a: 50 * 9.5ms / 2 cores.
  EXPECT_NEAR(truth.ServiceUtil(wa), 50 * 0.0095 / 2, 1e-9);
}

TEST(GroundTruth, BottleneckIsTheTightestHop) {
  const auto app = grunt::testing::TwoPathParallelApp();
  GroundTruth truth(app, FlatRates(app, 40.0));
  EXPECT_EQ(truth.BottleneckOf(0), *app.FindService("worker-a"));
  EXPECT_EQ(truth.BottleneckOf(1), *app.FindService("worker-b"));
}

TEST(GroundTruth, ClassifiesParallelDependency) {
  const auto app = grunt::testing::TwoPathParallelApp();
  GroundTruth truth(app, FlatRates(app, 40.0));
  EXPECT_EQ(truth.Classify(0, 1), DepType::kParallel);
}

TEST(GroundTruth, ClassifiesSequentialDependencyWithDirection) {
  const auto app = grunt::testing::SequentialApp();
  GroundTruth truth(app, FlatRates(app, 30.0));
  EXPECT_EQ(truth.BottleneckOf(0), *app.FindService("um"));
  EXPECT_EQ(truth.BottleneckOf(1), *app.FindService("worker"));
  EXPECT_EQ(truth.Classify(0, 1), DepType::kSequentialAUp);
  EXPECT_EQ(truth.Classify(1, 0), DepType::kSequentialBUp);
}

TEST(GroundTruth, ClassifiesNoneForDisjointPaths) {
  const auto app = grunt::testing::DisjointApp();
  GroundTruth truth(app, FlatRates(app, 40.0));
  EXPECT_EQ(truth.Classify(0, 1), DepType::kNone);
}

TEST(GroundTruth, MutualWhenPathsShareTheirBottleneck) {
  using namespace grunt::testing;
  microsvc::Application::Builder b;
  b.SetNetLatency(Us(200));
  const auto gw = b.AddService(Svc("gw", 2048, 8));
  const auto hot = b.AddService(Svc("hot", 16, 2));
  const auto l1 = b.AddService(Svc("l1", 64, 2));
  const auto l2 = b.AddService(Svc("l2", 64, 2));
  b.AddRequestType(Type("p", {{gw, Us(200), 0},
                              {hot, Us(9000), Us(500)},
                              {l1, Us(300), 0}}));
  b.AddRequestType(Type("q", {{gw, Us(200), 0},
                              {hot, Us(9000), Us(500)},
                              {l2, Us(300), 0}}));
  const auto app = std::move(b).Build();
  GroundTruth truth(app, FlatRates(app, 30.0));
  EXPECT_EQ(truth.Classify(0, 1), DepType::kMutual);
}

TEST(GroundTruth, HugeGatewayPoolIsNotAnExploitableSharedUpstream) {
  // Both paths pass the 2048-slot gateway, but a stealth-bounded burst can
  // never overflow it, so sharing only the gateway means no dependency.
  const auto app = grunt::testing::DisjointApp();
  GroundTruth truth(app, FlatRates(app, 40.0));
  const auto gw = *app.FindService("gw");
  EXPECT_FALSE(truth.CanOverflow(0, gw));
  // But the small UM of the parallel app IS overflowable.
  const auto papp = grunt::testing::TwoPathParallelApp();
  GroundTruth ptruth(papp, FlatRates(papp, 40.0));
  EXPECT_TRUE(ptruth.CanOverflow(0, *papp.FindService("um")));
}

TEST(GroundTruth, StealthBacklogShrinksWithBackgroundLoad) {
  const auto app = grunt::testing::TwoPathParallelApp();
  GroundTruth idle(app, FlatRates(app, 5.0));
  GroundTruth busy(app, FlatRates(app, 90.0));
  EXPECT_GT(idle.StealthBacklog(0), busy.StealthBacklog(0));
}

TEST(GroundTruth, PmbLimitGatesParallelDetection) {
  // With an absurdly tight stealth cap, no backlog can reach the UM: the
  // parallel dependency disappears from the exploitable set.
  const auto app = grunt::testing::TwoPathParallelApp();
  GroundTruth tight(app, FlatRates(app, 40.0), /*pmb_limit_s=*/0.01);
  EXPECT_EQ(tight.Classify(0, 1), DepType::kNone);
}

TEST(GroundTruth, RejectsWrongRateVectorSize) {
  const auto app = grunt::testing::DisjointApp();
  EXPECT_THROW(GroundTruth(app, {1.0}), std::invalid_argument);
}

TEST(GroundTruth, AllPairsCoversEveryUnorderedPair) {
  const auto app = apps::MakeSocialNetwork({});
  GroundTruth truth(app, FlatRates(app, 70.0));
  const auto pairs = truth.AllPairs();
  const std::size_t n = app.PublicDynamicTypes().size();
  EXPECT_EQ(pairs.size(), n * (n - 1) / 2);
}

TEST(GroundTruth, SocialNetworkFormsThreeGroupsPlusSingletons) {
  const auto app = apps::MakeSocialNetwork({});
  // Roughly the reference mix at ~1000 req/s.
  const auto mix = apps::SocialNetworkMix(app);
  std::vector<double> rates(app.request_type_count(), 0.0);
  double total_w = 0;
  for (double w : mix.weights) total_w += w;
  for (std::size_t i = 0; i < mix.types.size(); ++i) {
    rates[static_cast<std::size_t>(mix.types[i])] =
        1000.0 * mix.weights[i] / total_w;
  }
  GroundTruth truth(app, rates);
  auto groups = DependencyGroups::FromPairs(app.request_type_count(),
                                            truth.AllPairs());
  // Count groups over dynamic types only.
  std::size_t multi = 0, singleton = 0;
  for (const auto& g : groups.Groups()) {
    bool dynamic = !app.request_type(g.front()).is_static;
    if (!dynamic) continue;
    (g.size() > 1 ? multi : singleton) += 1;
  }
  EXPECT_EQ(multi, 3u);       // compose, home, user (Fig 12c)
  EXPECT_EQ(singleton, 2u);   // login, search
  // The compose group's sequential member is compose/poll (upstream).
  const auto poll = *app.FindRequestType("compose/poll");
  const auto text = *app.FindRequestType("compose/text");
  EXPECT_EQ(truth.Classify(poll, text), DepType::kSequentialAUp);
}

TEST(DependencyGroups, UnionFindBasics) {
  DependencyGroups g(5);
  EXPECT_FALSE(g.SameGroup(0, 1));
  g.Union(0, 1);
  g.Union(3, 4);
  EXPECT_TRUE(g.SameGroup(0, 1));
  EXPECT_TRUE(g.SameGroup(3, 4));
  EXPECT_FALSE(g.SameGroup(1, 3));
  g.Union(1, 3);
  EXPECT_TRUE(g.SameGroup(0, 4));
  const auto groups = g.Groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].size(), 4u);  // largest first
  EXPECT_EQ(groups[1].size(), 1u);
}

/// Property: the µBench factory must embed exactly the advertised group
/// structure for any seed.
class MuBenchStructureTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MuBenchStructureTest, EmbeddedGroupsMatchGroundTruth) {
  const auto app = scenario::BuildApplication(
      scenario::GenerateMubench(GetParam(), {.services = 62}).topology);
  EXPECT_EQ(app.service_count(), 62u);

  GroundTruth truth(app, FlatRates(app, 60.0));
  auto groups = DependencyGroups::FromPairs(app.request_type_count(),
                                            truth.AllPairs());
  std::size_t multi = 0, singleton = 0;
  std::size_t largest = 0;
  for (const auto& g : groups.Groups()) {
    (g.size() > 1 ? multi : singleton) += 1;
    largest = std::max(largest, g.size());
  }
  EXPECT_EQ(multi, 3u);
  EXPECT_EQ(singleton, 2u);
  // The first group carries the extra upstream path.
  EXPECT_EQ(largest, 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MuBenchStructureTest,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace grunt::trace
