#include <gtest/gtest.h>

#include "fixtures.h"
#include "microsvc/cluster.h"
#include "scenario/builtin_apps.h"
#include "scenario/loader.h"
#include "sim/simulation.h"
#include "trace/dependency.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace grunt::scenario {
namespace {

microsvc::Application MakeHotelReservation(const DeploymentParams& p = {}) {
  return BuildApplication(HotelReservationScenario(p).topology);
}

workload::RequestMix HotelReservationMix(const microsvc::Application& app) {
  return BuildRequestMix(app, HotelReservationScenario().workload);
}

workload::MarkovNavigator HotelReservationNavigator(
    const microsvc::Application& app) {
  return BuildNavigator(app, HotelReservationScenario().workload);
}

std::vector<double> MixRates(const microsvc::Application& app,
                             std::int32_t users) {
  const auto mix = HotelReservationMix(app);
  std::vector<double> rates(app.request_type_count(), 0.0);
  double total_w = 0;
  for (double w : mix.weights) total_w += w;
  for (std::size_t i = 0; i < mix.types.size(); ++i) {
    rates[static_cast<std::size_t>(mix.types[i])] =
        static_cast<double>(users) / 7.0 * mix.weights[i] / total_w;
  }
  return rates;
}

TEST(HotelReservation, TopologyShape) {
  const auto app = MakeHotelReservation();
  EXPECT_EQ(app.name(), "hotelreservation");
  EXPECT_GE(app.service_count(), 18u);
  EXPECT_EQ(app.PublicDynamicTypes().size(), 9u);
  for (const char* name : {"search", "reservation"}) {
    auto id = app.FindService(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_LE(app.service(*id).threads_per_replica, 32) << name;
  }
  EXPECT_THROW(MakeHotelReservation({.replica_scale = 0}),
               std::invalid_argument);
}

TEST(HotelReservation, GroundTruthFormsTwoGroupsPlusSingletons) {
  const auto app = MakeHotelReservation();
  trace::GroundTruth truth(app, MixRates(app, 5000));
  auto groups = trace::DependencyGroups::FromPairs(app.request_type_count(),
                                                   truth.AllPairs());
  std::size_t multi = 0, singleton = 0, largest = 0;
  for (const auto& g : groups.Groups()) {
    if (app.request_type(g.front()).is_static && g.size() == 1) continue;
    (g.size() > 1 ? multi : singleton) += 1;
    largest = std::max(largest, g.size());
  }
  EXPECT_EQ(multi, 2u);      // search + reservation fan-ins
  EXPECT_EQ(singleton, 2u);  // login, profile
  EXPECT_EQ(largest, 4u);    // search group carries the complex-search path

  // The complex search is the sequential upstream member of its group.
  const auto complex_search = *app.FindRequestType("search/complex");
  const auto nearby = *app.FindRequestType("search/nearby");
  EXPECT_EQ(truth.Classify(complex_search, nearby),
            trace::DepType::kSequentialAUp);
  // Across groups: no dependency.
  const auto book = *app.FindRequestType("reserve/book");
  EXPECT_EQ(truth.Classify(nearby, book), trace::DepType::kNone);
}

TEST(HotelReservation, BaselineHealthyAtReferenceLoad) {
  sim::Simulation sim;
  const auto app = MakeHotelReservation();
  microsvc::Cluster cluster(sim, app, 8);
  const grunt::testing::CompletionLog completions(cluster);
  workload::ClosedLoopWorkload::Config wl;
  wl.users = 5000;
  wl.navigator = HotelReservationNavigator(app);
  workload::ClosedLoopWorkload load(cluster, wl, 8);
  load.Start();
  sim.RunUntil(Sec(30));
  Samples rt;
  for (const auto& rec : completions) {
    if (rec.start >= Sec(10) && rec.cls == microsvc::RequestClass::kLegit) {
      rt.Add(ToMillis(rec.end - rec.start));
    }
  }
  ASSERT_GT(rt.count(), 5'000u);
  EXPECT_LT(rt.mean(), 60.0);
  EXPECT_LT(cluster.in_flight(), 500u);
}

TEST(HotelReservation, MixAndNavigatorValidate) {
  const auto app = MakeHotelReservation();
  EXPECT_NO_THROW(HotelReservationMix(app).Validate());
  EXPECT_NO_THROW(HotelReservationNavigator(app).Validate());
  EXPECT_EQ(HotelReservationMix(app).types.size(), 10u);  // incl. static
}

}  // namespace
}  // namespace grunt::scenario
