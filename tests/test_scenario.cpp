#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "scenario/builder.h"
#include "scenario/builtin_apps.h"
#include "scenario/generate.h"
#include "scenario/loader.h"
#include "scenario/registry.h"
#include "scenario/spec.h"

namespace grunt::scenario {
namespace {

TEST(ScenarioRoundTrip, BuiltinsSurviveDumpParse) {
  for (const auto& builtin : BuiltinScenarios()) {
    const ScenarioSpec spec = builtin.make();
    const std::string text = DumpScenario(spec);
    const ScenarioSpec back = ParseScenario(text);
    EXPECT_EQ(spec, back) << builtin.name;
    // Byte-stable: dump(parse(dump)) == dump.
    EXPECT_EQ(DumpScenario(back), text) << builtin.name;
  }
}

TEST(ScenarioRoundTrip, ApplicationToSpecToApplication) {
  // Application -> spec dump -> parse -> build must be structurally
  // identical to the original (the PR's golden-equivalence contract).
  for (const auto& builtin : BuiltinScenarios()) {
    const ScenarioSpec spec = builtin.make();
    const auto app = BuildApplication(spec.topology);
    const TopologySpec re_spec = TopologyFromApplication(app);
    const auto app2 =
        BuildApplication(ParseTopology(DumpTopology(re_spec)));
    EXPECT_TRUE(microsvc::StructurallyEqual(app, app2)) << builtin.name;
  }
}

TEST(ScenarioRoundTrip, FanOutStageAndPerCallRpcSurvive) {
  TopologySpec t;
  t.name = "fanout";
  SpecBuilder b("fanout");
  const auto gw = b.AddService("gw", 2048, 8, 1);
  const auto l = b.AddService("left", 16, 2, 1);
  const auto r = b.AddService("right", 16, 2, 1);
  microsvc::RpcPolicy rpc;
  rpc.timeout = Ms(50);
  rpc.max_retries = 2;
  b.AddStagedEndpoint(
      "api/fan",
      {StageSpec{{CallSpec{gw, Us(100), 0}}},
       StageSpec{{CallSpec{l, Us(500), 0, rpc}, CallSpec{r, Us(700), 0}}}},
      1.4, 700, 2000);
  t = std::move(b).Build();
  const TopologySpec back = ParseTopology(DumpTopology(t));
  EXPECT_EQ(t, back);
  ASSERT_EQ(back.endpoints[0].stages.size(), 2u);
  EXPECT_EQ(back.endpoints[0].stages[1].calls.size(), 2u);
  ASSERT_TRUE(back.endpoints[0].stages[1].calls[0].rpc.has_value());
  EXPECT_EQ(back.endpoints[0].stages[1].calls[0].rpc->timeout, Ms(50));
  // The loader flattens the fan-out in declaration order.
  const auto app = BuildApplication(back);
  const auto path = app.PathServices(*app.FindRequestType("api/fan"));
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(app.service(path[1]).name, "left");
  EXPECT_EQ(app.service(path[2]).name, "right");
}

TEST(ScenarioParse, RejectsUnknownKeysAndBadValues) {
  ScenarioSpec spec = SocialNetworkScenario();
  std::string text = DumpScenario(spec);
  EXPECT_NO_THROW(ParseScenario(text));

  // A typo'd key anywhere must fail loudly, naming the context.
  const std::string bad = R"({
    "grunt_scenario": 1,
    "topology": {
      "name": "x",
      "services": [{"name": "s", "threds_per_replica": 4}],
      "endpoints": []
    }
  })";
  try {
    ParseScenario(bad);
    FAIL() << "expected unknown-key rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("threds_per_replica"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("service \"s\""), std::string::npos);
  }

  EXPECT_THROW(ParseScenario(R"({"grunt_scenario": 2, "topology":
      {"services": [], "endpoints": []}})"),
               std::invalid_argument);
  EXPECT_THROW(ParseScenario(R"({"topology": {"services": [],
      "endpoints": [], "service_time_dist": "gaussian"}})"),
               std::invalid_argument);
}

TEST(ScenarioLoader, UnknownServiceReferenceNamesTheEndpoint) {
  SpecBuilder b("broken");
  b.AddService("real", 8, 1, 1);
  b.AddChainEndpoint("api/x", {CallSpec{"ghost", Us(100), 0}}, 1.2, 500,
                     1000);
  const TopologySpec t = std::move(b).Build();
  try {
    BuildApplication(t);
    FAIL() << "expected unknown-service error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("api/x"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
  }
}

TEST(ScenarioLoader, MixValidationAndNavigators) {
  const ScenarioSpec spec = SocialNetworkScenario();
  const auto app = BuildApplication(spec.topology);

  const auto mix = BuildRequestMix(app, spec.workload);
  EXPECT_EQ(mix.types.size(), spec.workload.mix.size());

  WorkloadSpec bad = spec.workload;
  bad.mix.push_back({"no/such/endpoint", 1.0});
  EXPECT_THROW(BuildRequestMix(app, bad), std::invalid_argument);

  // Empty mix = uniform over the public dynamic endpoints.
  WorkloadSpec empty;
  const auto uniform = BuildRequestMix(app, empty);
  EXPECT_EQ(uniform.types.size(), app.PublicDynamicTypes().size());

  const auto stationary = BuildNavigator(app, spec.workload);
  ASSERT_EQ(stationary.transition.size(), stationary.types.size());
  EXPECT_EQ(stationary.transition[0], mix.weights);

  WorkloadSpec uni = spec.workload;
  uni.navigator = WorkloadSpec::Navigator::kUniform;
  const auto nav = BuildNavigator(app, uni);
  EXPECT_EQ(nav.types.size(), mix.types.size());
}

TEST(ScenarioRegistry, BuiltinsResolveAndUnknownsThrow) {
  EXPECT_GE(BuiltinScenarios().size(), 5u);
  EXPECT_TRUE(MakeBuiltin("socialnetwork").has_value());
  EXPECT_TRUE(MakeBuiltin("mubench-196").has_value());
  EXPECT_FALSE(MakeBuiltin("nope").has_value());
  EXPECT_EQ(ResolveScenario("hotelreservation").topology.services.size(),
            18u);
  EXPECT_THROW(ResolveScenario("not-a-scenario"), std::invalid_argument);
  EXPECT_FALSE(ListScenariosText().empty());
}

TEST(ScenarioRegistry, ResolvesSpecFilesByPath) {
  const std::string path = ::testing::TempDir() + "roundtrip_scenario.json";
  const ScenarioSpec spec = HotelReservationScenario();
  SaveScenarioFile(path, spec);
  const ScenarioSpec loaded = ResolveScenario(path);
  EXPECT_EQ(spec, loaded);
  std::remove(path.c_str());

  // Path-looking arguments that don't exist mention the path.
  try {
    ResolveScenario("/no/such/dir/spec.json");
    FAIL() << "expected load error";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/dir/spec.json"),
              std::string::npos);
  }
}

TEST(ScenarioGenerator, DeterministicAndSeedSensitive) {
  const ScenarioSpec a = GenerateMubench(7);
  const ScenarioSpec b = GenerateMubench(7);
  EXPECT_EQ(a, b);
  const ScenarioSpec c = GenerateMubench(8);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.topology.services.size(), 62u);
}

TEST(ScenarioGenerator, HonorsShapeParams) {
  MubenchParams p;
  p.services = 40;
  p.groups = 2;
  p.paths_per_group = 2;
  p.upstream_paths = 2;
  p.singleton_paths = 1;
  const ScenarioSpec spec = GenerateMubench(3, p);
  EXPECT_EQ(spec.topology.services.size(), 40u);
  // 2 groups * 2 paths + 2 admin + 1 singleton endpoints.
  EXPECT_EQ(spec.topology.endpoints.size(), 7u);
  // Admin endpoints are down-weighted in the generated mix.
  int admins = 0;
  for (const auto& m : spec.workload.mix) {
    if (m.endpoint.find("-admin") != std::string::npos) {
      ++admins;
      EXPECT_DOUBLE_EQ(m.weight, 0.25);
    } else {
      EXPECT_DOUBLE_EQ(m.weight, 1.0);
    }
  }
  EXPECT_EQ(admins, 2);
  // users == 0 keeps the reference population; a deployment overrides it.
  EXPECT_EQ(spec.workload.users, 4000);
  EXPECT_EQ(GenerateMubench(3, p, {.users = 900}).workload.users, 900);

  MubenchParams tiny;
  tiny.services = 4;
  EXPECT_THROW(GenerateMubench(1, tiny), std::invalid_argument);
  MubenchParams impossible;
  impossible.services = 10;
  impossible.groups = 4;
  EXPECT_THROW(GenerateMubench(1, impossible), std::invalid_argument);
}

TEST(ScenarioBuilder, GatewayRuleAndAdmissionStamping) {
  DeploymentParams d;
  d.dist = microsvc::ServiceTimeDist::kDeterministic;
  microsvc::RpcPolicy rpc;
  rpc.timeout = Ms(80);
  d.default_rpc = rpc;
  d.max_queue_per_replica = 64;
  d.breaker_threshold = 5;
  d.breaker_cooldown = Ms(250);
  d.bulkhead_per_downstream = 6;
  d.adaptive_limit.enabled = true;
  d.deadline_shed.enabled = true;
  d.endpoint_deadline = Sec(2);
  SpecBuilder b("adm");
  b.SetDeployment(d);
  const auto gw = b.AddService("gw", kGatewayThreads, 8, 1);
  const auto backend = b.AddService("backend", 16, 2, 2);
  b.AddChainEndpoint("api/x", {{gw, Us(100), 0}, {backend, Us(900), 0}}, 1.5,
                     500, 1000);
  b.AddStaticEndpoint("static/x", 100, 1000);
  const TopologySpec t = std::move(b).Build();
  EXPECT_EQ(t.dist, microsvc::ServiceTimeDist::kDeterministic);
  ASSERT_TRUE(t.default_rpc.has_value());
  EXPECT_EQ(t.default_rpc->timeout, Ms(80));
  // Gateways are exempt from every backend knob: they never shed.
  EXPECT_EQ(t.services[0].max_queue_per_replica, 0);
  EXPECT_EQ(t.services[0].breaker_threshold, 0);
  EXPECT_EQ(t.services[0].bulkhead_per_downstream, 0);
  EXPECT_FALSE(t.services[0].adaptive_limit.enabled);
  EXPECT_FALSE(t.services[0].deadline_shed.enabled);
  EXPECT_EQ(t.services[1].max_queue_per_replica, 64);
  EXPECT_EQ(t.services[1].breaker_threshold, 5);
  EXPECT_EQ(t.services[1].breaker_cooldown, Ms(250));
  EXPECT_EQ(t.services[1].bulkhead_per_downstream, 6);
  EXPECT_TRUE(t.services[1].adaptive_limit.enabled);
  EXPECT_TRUE(t.services[1].deadline_shed.enabled);
  EXPECT_EQ(t.services[1].max_replicas, 16);  // replicas * 8 default
  // The deadline goes on dynamic endpoints only.
  EXPECT_EQ(t.endpoints[0].deadline, Sec(2));
  EXPECT_EQ(t.endpoints[1].deadline, 0);
}

TEST(ScenarioBuilder, ScaledDemandMatchesLegacyArithmetic) {
  EXPECT_EQ(ScaledDemand(9.0, 1.0), Us(9000));
  EXPECT_EQ(ScaledDemand(9.0, 0.95),
            static_cast<SimDuration>(9.0 * 1000.0 / 0.95));
  EXPECT_EQ(ScaledDemand(0.0001, 10.0), 1);  // floors at one tick
}

TEST(ScenarioBuiltins, ParamsValidation) {
  DeploymentParams bad;
  bad.replica_scale = 0;
  EXPECT_THROW(SocialNetworkScenario(bad), std::invalid_argument);
  EXPECT_THROW(HotelReservationScenario(bad), std::invalid_argument);
  DeploymentParams neg;
  neg.capacity_scale = -1;
  EXPECT_THROW(SocialNetworkScenario(neg), std::invalid_argument);
  DeploymentParams q;
  q.queue_scale = 0;
  EXPECT_THROW(SocialNetworkScenario(q), std::invalid_argument);
}

}  // namespace
}  // namespace grunt::scenario
