#include "cloud/monitor.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fixtures.h"
#include "workload/workload.h"

namespace grunt::cloud {
namespace {

using grunt::testing::SingleChainApp;

TEST(ResourceMonitor, MeasuresKnownCpuUtilization) {
  sim::Simulation sim;
  const auto app = SingleChainApp();  // deterministic demands
  microsvc::Cluster cluster(sim, app, 1);
  ResourceMonitor monitor(cluster, {Sec(1), "m"});
  monitor.Start();
  // s1: 5 ms (+1 ms post) on 2 cores. 100 req/s -> util = 0.6/2 = 30%.
  workload::OpenLoopSource::Config cfg;
  cfg.rate = 100;
  cfg.mix = workload::RequestMix::Uniform({0});
  workload::OpenLoopSource src(cluster, cfg, 1);
  src.Start();
  sim.RunUntil(Sec(30));
  const auto s1 = *app.FindService("s1");
  const double util = monitor.cpu_util(s1).WindowMean(Sec(5), Sec(30));
  EXPECT_NEAR(util, 0.30, 0.03);
  const auto s0 = *app.FindService("s0");
  EXPECT_NEAR(monitor.cpu_util(s0).WindowMean(Sec(5), Sec(30)), 0.05, 0.02);
  EXPECT_EQ(monitor.HottestService(Sec(5), Sec(30)), s1);
}

TEST(ResourceMonitor, GatewayMbpsTracksBytes) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  ResourceMonitor monitor(cluster, {Sec(1), "m"});
  monitor.Start();
  workload::OpenLoopSource::Config cfg;
  cfg.rate = 200;
  cfg.mix = workload::RequestMix::Uniform({0});
  workload::OpenLoopSource src(cluster, cfg, 2);
  src.Start();
  sim.RunUntil(Sec(20));
  const auto& spec = app.request_type(0);
  const double expected_mbps =
      200.0 * static_cast<double>(spec.request_bytes + spec.response_bytes) /
      1e6;
  EXPECT_NEAR(monitor.gateway_mbps().WindowMean(Sec(5), Sec(20)),
              expected_mbps, expected_mbps * 0.15);
}

TEST(ResourceMonitor, GranularityControlsSampleCount) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  ResourceMonitor coarse(cluster, {Sec(1), "coarse"});
  ResourceMonitor fine(cluster, {Ms(100), "fine"});
  coarse.Start();
  fine.Start();
  sim.RunUntil(Sec(10));
  EXPECT_EQ(coarse.cpu_util(0).size(), 10u);
  EXPECT_EQ(fine.cpu_util(0).size(), 100u);
  coarse.Stop();
  fine.Stop();
  sim.RunUntil(Sec(12));
  EXPECT_EQ(coarse.cpu_util(0).size(), 10u);
}

TEST(ResourceMonitor, FineGranularitySeesMillibottleneckCoarseMisses) {
  // The stealthiness argument in miniature (Fig 13 vs Fig 14): a ~300 ms
  // CPU burst saturates the service; only the 100 ms monitor sees >95%
  // utilization samples.
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  ResourceMonitor coarse(cluster, {Sec(1), "coarse"});
  ResourceMonitor fine(cluster, {Ms(100), "fine"});
  coarse.Start();
  fine.Start();
  const auto s1 = *app.FindService("s1");
  // Saturate s1's 2 cores for ~300 ms starting at t=2.2s.
  sim.At(Ms(2200), [&] {
    for (int i = 0; i < 100; ++i) {
      cluster.service(s1).RunCpu(Ms(6), [] {});
    }
  });
  sim.RunUntil(Sec(5));
  EXPECT_GT(fine.cpu_util(s1).WindowMax(0, Sec(5)), 0.95);
  EXPECT_LT(coarse.cpu_util(s1).WindowMax(0, Sec(5)), 0.60);
}

TEST(ResponseTimeMonitor, WindowsLegitOnly) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  rt.Start();
  // Spaced out so the classes do not contend for CPU.
  sim.At(Ms(100), [&] {
    cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
  });
  sim.At(Ms(400), [&] {
    cluster.Submit(0, microsvc::RequestClass::kAttack, true, 2);
  });
  sim.At(Ms(700), [&] {
    cluster.Submit(0, microsvc::RequestClass::kProbe, false, 3);
  });
  sim.RunUntil(Sec(3));
  const Samples window = rt.LegitWindow(0, Sec(3));
  ASSERT_EQ(window.count(), 1u);  // only the legit one
  EXPECT_NEAR(window.mean(), 10.2, 0.01);  // 9 ms CPU + 1.2 ms network
  // Per-window series: the legit completion lands in the first 1 s bucket.
  ASSERT_GE(rt.legit_mean_ms().size(), 3u);
  EXPECT_NEAR(rt.legit_mean_ms().at(0).value, 10.2, 0.01);
  EXPECT_DOUBLE_EQ(rt.legit_mean_ms().at(1).value, 0.0);
  EXPECT_NEAR(rt.goodput().at(0).value, 1.0, 1e-9);
  // The same completion feeds the registry histogram: one observation in
  // "rt.legit_ms", and the p95 estimate lies inside its (10, 20] bucket.
  auto& reg = cluster.telemetry().metrics();
  const auto h = reg.Find("rt.legit_ms");
  ASSERT_NE(h, telemetry::MetricsRegistry::kInvalidId);
  EXPECT_EQ(reg.histogram_count(h), 1u);
  EXPECT_NEAR(reg.histogram_sum(h), 10.2, 0.01);
  const double p95 = reg.histogram_quantile(h, 0.95);
  EXPECT_GT(p95, 10.0);
  EXPECT_LE(p95, 20.0);
}

TEST(ResponseTimeMonitor, P95TracksTail) {
  sim::Simulation sim;
  const auto app = SingleChainApp(microsvc::ServiceTimeDist::kExponential);
  microsvc::Cluster cluster(sim, app, 9);
  ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  rt.Start();
  workload::OpenLoopSource::Config cfg;
  cfg.rate = 100;
  cfg.mix = workload::RequestMix::Uniform({0});
  workload::OpenLoopSource src(cluster, cfg, 9);
  src.Start();
  sim.RunUntil(Sec(20));
  const Samples window = rt.LegitWindow(Sec(2), Sec(20));
  EXPECT_GT(window.Percentile(95), window.mean());
}

TEST(ResponseTimeMonitor, LegitWindowIsHalfOpenOnEndTime) {
  sim::Simulation sim;
  const auto app = SingleChainApp(microsvc::ServiceTimeDist::kExponential);
  microsvc::Cluster cluster(sim, app, 5);
  const grunt::testing::CompletionLog log(cluster);
  ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  rt.Start();
  workload::OpenLoopSource::Config cfg;
  cfg.rate = 150;
  cfg.mix = workload::RequestMix::Uniform({0});
  workload::OpenLoopSource src(cluster, cfg, 5);
  src.Start();
  sim.RunUntil(Sec(10));

  std::vector<std::pair<SimTime, double>> ok;  // (end, rt_ms), publish order
  for (const auto& r : log) {
    if (r.cls == microsvc::RequestClass::kLegit &&
        r.outcome == microsvc::Outcome::kOk) {
      ok.emplace_back(r.end, ToMillis(r.end - r.start));
    }
  }
  ASSERT_GT(ok.size(), 1000u);
  auto reference = [&](SimTime from, SimTime to) {
    std::vector<double> out;
    for (const auto& [end, ms] : ok) {
      if (end >= from && end < to) out.push_back(ms);
    }
    return out;
  };

  // Window edges placed exactly on completion times: an end equal to
  // `from` counts, an end equal to `to` does not.
  for (std::size_t i : {0ul, 17ul, 333ul}) {
    for (std::size_t j : {i + 1, i + 250, ok.size() - 1}) {
      const SimTime from = ok[i].first;
      const SimTime to = ok[j].first;
      const Samples got = rt.LegitWindow(from, to);
      EXPECT_EQ(got.values(), reference(from, to)) << i << ".." << j;
      EXPECT_FALSE(got.values().empty());
    }
  }
  const SimTime e = ok[40].first;
  EXPECT_EQ(rt.LegitWindow(e, e).count(), 0u);
  EXPECT_EQ(rt.LegitWindow(e, e + 1).values(), reference(e, e + 1));
  EXPECT_GE(rt.LegitWindow(e, e + 1).count(), 1u);
  EXPECT_EQ(rt.LegitWindow(0, Sec(10)).values(), reference(0, Sec(10)));
  EXPECT_EQ(rt.LegitWindow(Sec(4), Sec(2)).count(), 0u);
}

TEST(ResponseTimeMonitor, LegitWindowMatchesLinearScanAcrossChunks) {
  sim::Simulation sim;
  const auto app = SingleChainApp(microsvc::ServiceTimeDist::kExponential);
  microsvc::Cluster cluster(sim, app, 7);
  const grunt::testing::CompletionLog log(cluster);
  ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  rt.Start();
  workload::OpenLoopSource::Config cfg;
  cfg.rate = 150;
  cfg.mix = workload::RequestMix::Uniform({0});
  workload::OpenLoopSource src(cluster, cfg, 7);
  src.Start();
  sim.RunUntil(Sec(120));

  std::vector<std::pair<SimTime, double>> ok;  // (end, rt_ms), publish order
  for (const auto& r : log) {
    if (r.cls == microsvc::RequestClass::kLegit &&
        r.outcome == microsvc::Outcome::kOk) {
      ok.emplace_back(r.end, ToMillis(r.end - r.start));
    }
  }
  constexpr std::size_t kRows = LegitRtStore::kChunkRows;
  // The run lasts minutes, far below the 32-bit offset span, so chunks
  // roll over only when full: chunk k holds rows [k * kRows, (k+1) * kRows).
  ASSERT_GT(ok.size(), 3 * kRows + 1);
  auto reference = [&](SimTime from, SimTime to) {
    std::vector<double> out;
    for (const auto& [end, ms] : ok) {
      if (end >= from && end < to) out.push_back(ms);
    }
    return out;
  };
  auto expect_same = [&](SimTime from, SimTime to) {
    EXPECT_EQ(rt.LegitWindow(from, to).values(), reference(from, to))
        << from << ".." << to;
  };
  for (std::size_t k = 0; k < 3; ++k) {
    const SimTime first = ok[k * kRows].first;
    const SimTime last = ok[(k + 1) * kRows - 1].first;
    const SimTime next_first = ok[(k + 1) * kRows].first;
    expect_same(first, last);
    expect_same(first, last + 1);
    expect_same(first + 1, last);
    expect_same(last, next_first);
    expect_same(last, next_first + 1);
    expect_same(first, next_first);
    expect_same(last, ok.back().first + 1);
    EXPECT_FALSE(rt.LegitWindow(last, last + 1).values().empty());
  }
  expect_same(ok[kRows - 1].first, ok[3 * kRows].first + 1);
  expect_same(0, Sec(120));
  EXPECT_EQ(rt.LegitWindow(0, Sec(120)).count(), ok.size());
}

TEST(ResponseTimeMonitor, LegitWindowSpansAnIdleGapBeyond32Bits) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  ResponseTimeMonitor rt(cluster, {Sec(60), "rt"});
  rt.Start();
  const SimTime second = Sec(1) + LegitRtStore::kMaxSpan + Sec(60);
  for (const SimTime at : {Sec(1), second}) {
    sim.At(at, [&] {
      cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
    });
  }
  sim.RunUntil(second + Sec(1));
  const Samples all = rt.LegitWindow(0, second + Sec(1));
  ASSERT_EQ(all.count(), 2u);
  EXPECT_EQ(rt.LegitWindow(0, second).values(),
            std::vector<double>{all.values()[0]});
  EXPECT_EQ(rt.LegitWindow(second, second + Sec(1)).values(),
            std::vector<double>{all.values()[1]});
  EXPECT_NEAR(all.values()[1], 10.2, 0.01);
}

TEST(LegitRtStore, StartsANewChunkBaseWhenTheEndOffsetOverflows) {
  LegitRtStore store;
  const SimTime t0 = Sec(5);
  store.Append(t0, Ms(3));
  // An offset of exactly kMaxSpan still fits the first chunk.
  store.Append(t0 + LegitRtStore::kMaxSpan, LegitRtStore::kMaxSpan);
  EXPECT_EQ(store.chunk_count(), 1u);
  const SimTime far = t0 + LegitRtStore::kMaxSpan + 1;
  store.Append(far, Ms(4));
  EXPECT_EQ(store.chunk_count(), 2u);
  EXPECT_EQ(store.last_end(), far);
  EXPECT_EQ(store.Window(0, far + 1).values(),
            (std::vector<double>{3.0, ToMillis(LegitRtStore::kMaxSpan), 4.0}));
  EXPECT_EQ(store.Window(far, far + 1).values(), std::vector<double>{4.0});
  EXPECT_EQ(store.Window(t0 + 1, far).values(),
            std::vector<double>{ToMillis(LegitRtStore::kMaxSpan)});
  EXPECT_TRUE(store.Window(far + 1, far + Sec(1)).values().empty());
}

TEST(ResponseTimeMonitor, LegitRtBeyond32BitsThrows) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  ResponseTimeMonitor rt(cluster, {Sec(60), "slow-rt"});
  rt.Start();
  // Both s1 cores are busy for kMaxSpan, so a legit request queued behind
  // them completes a little over 2^32 µs after its start.
  const auto s1 = *app.FindService("s1");
  sim.At(Ms(1), [&] {
    for (int c = 0; c < 2; ++c) {
      cluster.service(s1).RunCpu(LegitRtStore::kMaxSpan, [] {});
    }
    cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
  });
  try {
    sim.RunUntil(LegitRtStore::kMaxSpan + Sec(10));
    FAIL() << "no overflow_error";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("slow-rt"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace grunt::cloud
