// Tests of the paper's CENTRAL mechanism (Sec III-B, Eqs 6-9): persistent
// blocking effects. A single burst's damage decays once its backlog drains;
// alternating bursts across the group's paths at intervals ~ t_damage keep
// a standing queue at the shared upstream service, so every legitimate
// request in the group sees at least t_min of delay for the whole attack.

#include <gtest/gtest.h>

#include "fixtures.h"
#include "microsvc/cluster.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace grunt {
namespace {

using grunt::testing::TwoPathParallelApp;

struct Rig {
  Rig() : app(TwoPathParallelApp(microsvc::ServiceTimeDist::kExponential)),
          cluster(sim, app, 11), completions(cluster) {
    workload::OpenLoopSource::Config wl;
    wl.rate = 120;
    wl.mix = workload::RequestMix::Uniform({0, 1});
    source = std::make_unique<workload::OpenLoopSource>(cluster, wl, 11);
    source->Start();
  }

  /// Mean legit RT (ms) of completions inside [from, to).
  double LegitRt(SimTime from, SimTime to) const {
    Samples rt;
    for (const auto& rec : completions) {
      if (rec.cls != microsvc::RequestClass::kLegit) continue;
      if (rec.end < from || rec.end >= to) continue;
      rt.Add(ToMillis(rec.end - rec.start));
    }
    return rt.mean();
  }

  void Volley(microsvc::RequestTypeId type, int n) {
    for (int i = 0; i < n; ++i) {
      cluster.Submit(type, microsvc::RequestClass::kAttack, true,
                     900'000 + static_cast<std::uint64_t>(i));
    }
  }

  sim::Simulation sim;
  microsvc::Application app;
  microsvc::Cluster cluster;
  grunt::testing::CompletionLog completions;
  std::unique_ptr<workload::OpenLoopSource> source;
};

TEST(PersistentBlocking, SingleBurstDamageDecays) {
  Rig rig;
  rig.sim.At(Sec(5), [&] { rig.Volley(0, 40); });
  rig.sim.RunUntil(Sec(12));
  const double during = rig.LegitRt(Sec(5), SecF(5.8));
  const double after = rig.LegitRt(Sec(8), Sec(12));
  const double baseline = rig.LegitRt(Sec(1), Sec(5));
  EXPECT_GT(during, 3 * baseline);   // the blocking effect was real...
  EXPECT_LT(after, 2 * baseline);    // ...and fully decayed (Sec III-B)
}

TEST(PersistentBlocking, AlternatingBurstsSustainDamage) {
  // Eq (9): fire the next burst (on the OTHER path) one damage-interval
  // after the previous one; the group's RT should stay elevated the whole
  // time, not sawtooth back to baseline.
  Rig rig;
  int path = 0;
  for (SimTime t = Sec(5); t < Sec(25); t += Ms(300)) {
    rig.sim.At(t, [&rig, &path] {
      rig.Volley(static_cast<microsvc::RequestTypeId>(path % 2), 35);
      ++path;
    });
  }
  rig.sim.RunUntil(Sec(30));
  const double baseline = rig.LegitRt(Sec(1), Sec(5));
  // Every 2-second slice of the attack window stays degraded.
  for (SimTime t = Sec(7); t < Sec(24); t += Sec(2)) {
    EXPECT_GT(rig.LegitRt(t, t + Sec(2)), 4 * baseline)
        << "window at " << ToSeconds(t) << "s";
  }
}

TEST(PersistentBlocking, GapsLetTheQueueDrain) {
  // Same volume, but with intervals much longer than t_damage: damage
  // windows separate and the average stays far below the sustained case.
  auto run = [&](SimDuration interval) {
    Rig rig;
    int path = 0;
    for (SimTime t = Sec(5); t < Sec(25); t += interval) {
      rig.sim.At(t, [&rig, &path] {
        rig.Volley(static_cast<microsvc::RequestTypeId>(path % 2), 35);
        ++path;
      });
    }
    rig.sim.RunUntil(Sec(30));
    return rig.LegitRt(Sec(6), Sec(25));
  };
  const double tight = run(Ms(300));
  const double sparse = run(Sec(3));
  EXPECT_GT(tight, 2.5 * sparse);
}

TEST(PersistentBlocking, AlternationOutperformsSamePathAtEqualVolume) {
  // Hammering one path with the same total volume keeps the OTHER path's
  // users mostly unharmed between that path's own millibottlenecks, and
  // stretches the per-service millibottleneck (stealth loss). Alternation
  // spreads the saturation while keeping the shared-UM queue standing.
  auto run = [&](bool alternate) {
    Rig rig;
    int path = 0;
    for (SimTime t = Sec(5); t < Sec(25); t += Ms(300)) {
      rig.sim.At(t, [&rig, &path, alternate] {
        rig.Volley(alternate
                       ? static_cast<microsvc::RequestTypeId>(path % 2)
                       : 0,
                   35);
        ++path;
      });
    }
    rig.sim.RunUntil(Sec(30));
    // RT of the path-1 users only (the "other" path under same-path mode).
    Samples rt;
    for (const auto& rec : rig.completions) {
      if (rec.cls != microsvc::RequestClass::kLegit || rec.type != 1) {
        continue;
      }
      if (rec.end < Sec(6) || rec.end >= Sec(25)) continue;
      rt.Add(ToMillis(rec.end - rec.start));
    }
    return rt.mean();
  };
  const double alternating = run(true);
  const double fixed = run(false);
  // Alternation hurts the sibling path at least as much; the margin comes
  // from the standing queue being refreshed from both sides.
  EXPECT_GT(alternating, fixed * 0.8);

  // And the per-service duty is halved under alternation: measure worker-a
  // saturation fraction.
  auto busy_fraction = [&](bool alternate) {
    Rig rig;
    const auto wa = *rig.app.FindService("worker-a");
    int path = 0;
    for (SimTime t = Sec(5); t < Sec(25); t += Ms(300)) {
      rig.sim.At(t, [&rig, &path, alternate] {
        rig.Volley(alternate
                       ? static_cast<microsvc::RequestTypeId>(path % 2)
                       : 0,
                   35);
        ++path;
      });
    }
    rig.sim.RunUntil(Sec(25));
    const auto busy = rig.cluster.service(wa).CumBusyCoreTime();
    return static_cast<double>(busy) /
           static_cast<double>(rig.cluster.service(wa).cores() * Sec(20));
  };
  EXPECT_LT(busy_fraction(true), busy_fraction(false) * 0.75);
}

}  // namespace
}  // namespace grunt
