#include "telemetry/bus.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "cloud/autoscaler.h"
#include "cloud/monitor.h"
#include "fixtures.h"
#include "telemetry/metrics.h"
#include "util/json.h"

namespace grunt::telemetry {
namespace {

using grunt::testing::SingleChainApp;
using grunt::testing::Svc;
using grunt::testing::Type;
using microsvc::Application;
using microsvc::RequestClass;
using microsvc::ServiceId;

RequestSubmit AnySubmit() { return RequestSubmit{0, RequestClass::kLegit, 1, 0}; }

// ---------------------------------------------------------------------------
// TelemetryBus channel semantics.

TEST(TelemetryBus, FanOutInRegistrationOrder) {
  TelemetryBus bus;
  EXPECT_FALSE(bus.submit().has_subscribers());
  std::vector<int> order;
  bus.submit().Subscribe([&](const RequestSubmit&) { order.push_back(1); });
  bus.submit().Subscribe([&](const RequestSubmit&) { order.push_back(2); });
  bus.submit().Subscribe([&](const RequestSubmit&) { order.push_back(3); });
  EXPECT_TRUE(bus.submit().has_subscribers());
  bus.submit().Publish(AnySubmit());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TelemetryBus, UnsubscribeStopsDeliveryAndIsIdempotent) {
  TelemetryBus bus;
  std::vector<int> order;
  const auto a =
      bus.submit().Subscribe([&](const RequestSubmit&) { order.push_back(1); });
  bus.submit().Subscribe([&](const RequestSubmit&) { order.push_back(2); });
  EXPECT_TRUE(bus.submit().Unsubscribe(a));
  EXPECT_FALSE(bus.submit().Unsubscribe(a));  // already gone
  EXPECT_TRUE(bus.submit().has_subscribers());
  bus.submit().Publish(AnySubmit());
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(TelemetryBus, MidDispatchChangesApplyToTheNextPublish) {
  // A subscriber that unsubscribes a later entry and adds a new one while a
  // publish is in flight: the tombstoned entry must be skipped in THIS
  // dispatch, the new entry must only fire from the NEXT one.
  TelemetryBus bus;
  std::vector<std::string> order;
  SubscriptionId b_id = 0;
  bus.submit().Subscribe([&](const RequestSubmit&) {
    order.push_back("a");
    if (b_id != 0) {
      EXPECT_TRUE(bus.submit().Unsubscribe(b_id));
      b_id = 0;
      bus.submit().Subscribe([&](const RequestSubmit&) {
        order.push_back("c");
      });
    }
  });
  b_id = bus.submit().Subscribe([&](const RequestSubmit&) {
    order.push_back("b");
  });
  bus.submit().Publish(AnySubmit());
  EXPECT_EQ(order, (std::vector<std::string>{"a"}));
  bus.submit().Publish(AnySubmit());
  EXPECT_EQ(order, (std::vector<std::string>{"a", "a", "c"}));
}

TEST(TelemetryBus, PublishWithoutSubscribersIsANoop) {
  TelemetryBus bus;
  EXPECT_FALSE(bus.completion().has_subscribers());
  bus.completion().Publish(CompletionRecord{});
  const auto id = bus.completion().Subscribe([](const CompletionRecord&) {});
  EXPECT_TRUE(bus.completion().Unsubscribe(id));
  EXPECT_FALSE(bus.completion().has_subscribers());
  bus.completion().Publish(CompletionRecord{});
}

// ---------------------------------------------------------------------------
// MetricsRegistry.

TEST(MetricsRegistry, InternsHandlesAndCountsExactly) {
  MetricsRegistry reg;
  const auto c = reg.Counter("requests.total");
  EXPECT_EQ(reg.Counter("requests.total"), c);  // same name, same handle
  reg.Add(c);
  reg.Add(c, 41);
  EXPECT_EQ(reg.counter_value(c), 42u);

  const auto g = reg.Gauge("depth");
  reg.Set(g, 7.5);
  EXPECT_EQ(reg.ReadGauge(g), 7.5);

  double source_value = 3.0;
  const auto cb = reg.Gauge("live", [&source_value] { return source_value; });
  source_value = 9.0;
  EXPECT_EQ(reg.ReadGauge(cb), 9.0);  // evaluated at read time

  EXPECT_EQ(reg.Find("requests.total"), c);
  EXPECT_EQ(reg.Find("missing"), MetricsRegistry::kInvalidId);
}

TEST(MetricsRegistry, KindMismatchOnInternThrows) {
  MetricsRegistry reg;
  reg.Counter("x");
  EXPECT_THROW(reg.Gauge("x"), json::Error);
  EXPECT_THROW(reg.Histogram("x", {1.0}), json::Error);
}

TEST(MetricsRegistry, HistogramBucketsAndSnapshotAreByteStable) {
  MetricsRegistry reg;
  reg.Add(reg.Counter("a.b"), 3);
  reg.Set(reg.Gauge("a.g"), 2.5);
  const auto h = reg.Histogram("rt_ms", {1.0, 10.0});
  reg.Observe(h, 0.5);
  reg.Observe(h, 5.0);
  reg.Observe(h, 100.0);  // overflow bucket
  EXPECT_EQ(reg.histogram_count(h), 3u);
  EXPECT_EQ(reg.histogram_sum(h), 105.5);

  const std::string expected =
      "{\n"
      "  \"a\": {\n"
      "    \"b\": 3,\n"
      "    \"g\": 2.5\n"
      "  },\n"
      "  \"rt_ms\": {\n"
      "    \"count\": 3,\n"
      "    \"sum\": 105.5,\n"
      "    \"p95\": 10,\n"
      "    \"p99\": 10,\n"
      "    \"buckets\": {\n"
      "      \"le_1\": 1,\n"
      "      \"le_10\": 1,\n"
      "      \"le_inf\": 1\n"
      "    }\n"
      "  }\n"
      "}";
  EXPECT_EQ(reg.SnapshotJson(), expected);
  EXPECT_EQ(reg.SnapshotJson(), reg.SnapshotJson());  // byte-stable
}

TEST(MetricsRegistry, HistogramQuantileInterpolatesWithinBucket) {
  MetricsRegistry reg;
  const auto h = reg.Histogram("lat", {10.0, 20.0, 30.0});
  for (int i = 0; i < 50; ++i) reg.Observe(h, 5.0);    // le_10
  for (int i = 0; i < 30; ++i) reg.Observe(h, 15.0);   // le_20
  for (int i = 0; i < 20; ++i) reg.Observe(h, 25.0);   // le_30
  // target rank 50 exhausts the first bucket exactly: its upper edge.
  EXPECT_DOUBLE_EQ(reg.histogram_quantile(h, 0.5), 10.0);
  // rank 95 sits 15/20 into the (20, 30] bucket.
  EXPECT_DOUBLE_EQ(reg.histogram_quantile(h, 0.95), 27.5);
  EXPECT_DOUBLE_EQ(reg.histogram_quantile(h, 0.99), 29.5);
  // Overflow clamps to the highest finite bound; empty histograms read 0.
  reg.Observe(h, 1000.0);
  EXPECT_DOUBLE_EQ(reg.histogram_quantile(h, 1.0), 30.0);
  EXPECT_DOUBLE_EQ(
      reg.histogram_quantile(reg.Histogram("empty", {1.0}), 0.95), 0.0);
}

TEST(MetricsRegistry, DottedPathCollisionThrowsOnSnapshot) {
  MetricsRegistry reg;
  reg.Counter("x");
  reg.Counter("x.y");  // "x" is both a leaf and an interior node
  EXPECT_THROW(reg.Snapshot(), json::Error);
}

// ---------------------------------------------------------------------------
// Cluster/service emission through the bus.

TEST(TelemetryPlane, QueueChannelReportsEnqueuesAndRejections) {
  // One worker thread, queue bound 1: of three simultaneous arrivals, the
  // first runs, the second waits (kEnqueued), the third sheds (kRejected).
  Application::Builder b;
  b.SetName("q").SetServiceTimeDist(microsvc::ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  const ServiceId gw = b.AddService(Svc("gw", 64, 8));
  auto wspec = Svc("w", 1, 1);
  wspec.max_queue_per_replica = 1;
  const ServiceId w = b.AddService(wspec);
  b.AddRequestType(Type("t", {{gw, Us(100), 0}, {w, Ms(5), 0}}));
  const Application app = std::move(b).Build();

  sim::Simulation sim;
  microsvc::Cluster cluster(sim, app, 1);
  std::vector<QueueEvent> events;
  cluster.telemetry().queue_depth().Subscribe(
      [&](const QueueEvent& e) { events.push_back(e); });
  for (int i = 0; i < 3; ++i) {
    cluster.Submit(0, RequestClass::kLegit, false, 1);
  }
  sim.RunAll();

  std::size_t enqueued = 0, rejected = 0;
  for (const auto& e : events) {
    if (e.service != w) continue;
    if (e.kind == QueueEvent::Kind::kEnqueued) {
      ++enqueued;
      EXPECT_EQ(e.slots_in_use, 1);
      EXPECT_GE(e.waiting, 1);
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(enqueued, 1u);
  EXPECT_EQ(rejected, 1u);
  EXPECT_EQ(cluster.service(w).rejected_arrivals(), 1);
}

TEST(TelemetryPlane, BreakerChannelReportsTransitions) {
  // Same schedule as the RpcPolicy breaker test: two timeouts open the
  // per-caller breaker; the half-open trial's failure re-opens it.
  Application::Builder b;
  b.SetName("breaker")
      .SetServiceTimeDist(microsvc::ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  const ServiceId gw = b.AddService(Svc("gw", 64, 8));
  auto wspec = Svc("w", 1, 1);
  wspec.breaker_threshold = 2;
  wspec.breaker_cooldown = Ms(100);
  const ServiceId w = b.AddService(wspec);
  microsvc::RpcPolicy p;
  p.timeout = Ms(10);
  auto t = Type("t", {{gw, Us(100), 0}, {w, Ms(50), 0}});
  t.hops[1].rpc = p;
  b.AddRequestType(t);
  const Application app = std::move(b).Build();

  sim::Simulation sim;
  microsvc::Cluster cluster(sim, app, 1);
  std::vector<BreakerTransition> transitions;
  cluster.telemetry().breaker().Subscribe(
      [&](const BreakerTransition& e) { transitions.push_back(e); });
  for (const SimTime at : {SimTime{0}, Ms(30), Ms(60), Ms(200), Ms(220)}) {
    sim.At(at, [&cluster] {
      cluster.Submit(0, RequestClass::kLegit, false, 1);
    });
  }
  sim.RunAll();

  ASSERT_GE(transitions.size(), 2u);
  for (const auto& tr : transitions) {
    EXPECT_EQ(tr.service, w);
    EXPECT_EQ(tr.caller, gw);
    EXPECT_TRUE(tr.open);  // this schedule only opens/re-opens, never closes
  }
  // First transition: the second timeout (submitted at 30 ms, ~10 ms
  // timeout) trips the threshold.
  EXPECT_GE(transitions[0].at, Ms(40));
  EXPECT_LT(transitions[0].at, Ms(45));
  EXPECT_EQ(transitions[0].consecutive_failures, 2);
}

// ---------------------------------------------------------------------------
// Monitor parity: the bus-fed gauges must reproduce direct polling exactly.

TEST(TelemetryPlane, ResourceMonitorMatchesDirectServiceSampling) {
  sim::Simulation sim;
  const Application app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  cloud::ResourceMonitor monitor(cluster, {Sec(1), "m"});
  monitor.Start();

  // Activity confined to [k+100ms, k+200ms] so nothing races the samples
  // taken at exact second boundaries.
  for (int k = 0; k < 5; ++k) {
    for (int i = 0; i < 20; ++i) {
      sim.At(Sec(k) + Ms(100) + i * Ms(1), [&cluster] {
        cluster.Submit(0, RequestClass::kLegit, false, 1);
      });
    }
  }

  const std::size_t n = cluster.service_count();
  std::vector<double> prev_busy(n, 0.0);
  std::vector<std::vector<double>> manual_util(n);
  for (int k = 1; k <= 5; ++k) {
    sim.RunUntil(Sec(k) + Us(1));
    for (std::size_t s = 0; s < n; ++s) {
      auto& svc = cluster.service(static_cast<ServiceId>(s));
      const double busy = static_cast<double>(svc.CumBusyCoreTime());
      const double window_core_us =
          static_cast<double>(svc.cores()) * static_cast<double>(Sec(1));
      double util = (busy - prev_busy[s]) / window_core_us;
      util = util < 0 ? 0 : (util > 1 ? 1 : util);
      prev_busy[s] = busy;
      manual_util[s].push_back(util);
    }
  }

  for (std::size_t s = 0; s < n; ++s) {
    const SeriesView series = monitor.cpu_util(static_cast<ServiceId>(s));
    ASSERT_EQ(series.size(), manual_util[s].size());
    bool any_nonzero = false;
    for (std::size_t k = 0; k < series.size(); ++k) {
      const TimePoint p = series.at(k);
      EXPECT_EQ(p.time, Sec(static_cast<long long>(k) + 1));
      EXPECT_EQ(p.value, manual_util[s][k]);  // bit-identical
      any_nonzero = any_nonzero || p.value > 0;
    }
    EXPECT_TRUE(any_nonzero);  // the parity check must not be vacuous
  }
}

// ---------------------------------------------------------------------------
// AutoScaler: bounded action log + scale channel.

TEST(TelemetryPlane, AutoScalerBoundsActionLogAndPublishesScaleEvents) {
  sim::Simulation sim;
  const Application app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  cloud::ResourceMonitor monitor(cluster, {Sec(1), "m"});
  cloud::AutoScaler::Config cfg;
  cfg.window = Sec(3);
  cfg.provision_delay = Sec(1);
  cfg.cooldown = Sec(2);
  cloud::AutoScaler scaler(cluster, monitor, cfg);
  scaler.SetActionLogBound(1);
  EXPECT_EQ(scaler.action_log_bound(), 1u);
  std::vector<ScaleEvent> published;
  cluster.telemetry().scale().Subscribe(
      [&](const ScaleEvent& e) { published.push_back(e); });
  monitor.Start();
  scaler.Start();

  // Saturate s1 long enough for several scale-ups.
  const auto s1 = *app.FindService("s1");
  for (SimTime t = 0; t < Sec(40); t += Ms(100)) {
    sim.At(t, [&cluster, s1] {
      auto& svc = cluster.service(s1);
      const SimDuration burst = svc.cores() * Ms(100) / 2;
      svc.RunCpu(burst, [] {});
      svc.RunCpu(burst, [] {});
    });
  }
  sim.RunUntil(Sec(40));

  const std::size_t total = scaler.scale_up_count() + scaler.scale_down_count();
  ASSERT_GE(total, 3u);
  EXPECT_EQ(published.size(), total);  // every action hit the bus
  // The log is bounded: at most 2*bound retained, the rest counted.
  EXPECT_LE(scaler.actions().size(), 2u);
  EXPECT_EQ(scaler.actions_dropped() + scaler.actions().size(), total);
  // The retained entries are the most recent ones, in order.
  const auto& kept = scaler.actions();
  ASSERT_FALSE(kept.empty());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const auto& want = published[published.size() - kept.size() + i];
    EXPECT_EQ(kept[i].at, want.at);
    EXPECT_EQ(kept[i].delta, want.delta);
    EXPECT_EQ(kept[i].replicas_after, want.replicas_after);
  }
}

}  // namespace
}  // namespace grunt::telemetry
