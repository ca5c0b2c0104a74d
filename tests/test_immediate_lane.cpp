#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "util/time_types.h"

namespace grunt::sim {
namespace {

// ---------------------------------------------------------------------------
// Differential ordering harness for the immediate lane: one randomized
// schedule script, executed five ways — every (lane, wheel) enable
// combination of the real engine plus a naive std::priority_queue reference
// — must produce byte-identical firing sequences. Unlike the timer-wheel
// harness, delays are biased hard toward zero so most events ride the lane:
// in-callback After(0) chains, same-timestamp cancellation of lane entries,
// and lane/heap/wheel ties at one timestamp are the cases under test.
// ---------------------------------------------------------------------------

struct ChildOp {
  SimDuration delay;
  int action;
};

struct Action {
  SimDuration period = 0;  ///< > 0: scheduled via Every
  int max_fires = 1;       ///< periodic actions self-cancel after this many
  std::vector<ChildOp> children;
  std::vector<int> cancels;  ///< cancelled when this action fires
};

struct Root {
  SimTime at;
  int action;
};

struct Script {
  std::vector<Action> actions;
  std::vector<Root> roots;
};

using FireLog = std::vector<std::pair<SimTime, int>>;

FireLog RunOnSimulation(const Script& script, bool use_lane, bool use_wheel) {
  Simulation sim;
  sim.SetImmediateLaneEnabled(use_lane);
  sim.SetTimerWheelEnabled(use_wheel);
  std::vector<EventHandle> handles(script.actions.size());
  std::vector<int> fires(script.actions.size(), 0);
  FireLog log;

  std::function<void(int)> fire = [&](int a) {
    log.emplace_back(sim.Now(), a);
    const Action& act = script.actions[static_cast<std::size_t>(a)];
    const int n = ++fires[static_cast<std::size_t>(a)];
    for (int c : act.cancels) handles[static_cast<std::size_t>(c)].Cancel();
    if (n == 1) {  // children are single-schedule; only the first tick spawns
      for (const ChildOp& ch : act.children) {
        const Action& child =
            script.actions[static_cast<std::size_t>(ch.action)];
        handles[static_cast<std::size_t>(ch.action)] =
            child.period > 0
                ? sim.Every(child.period, [&fire, a = ch.action] { fire(a); })
                : sim.After(ch.delay, [&fire, a = ch.action] { fire(a); });
      }
    }
    if (act.period > 0 && n >= act.max_fires) {
      handles[static_cast<std::size_t>(a)].Cancel();
    }
  };

  for (const Root& r : script.roots) {
    const Action& act = script.actions[static_cast<std::size_t>(r.action)];
    if (act.period > 0) {
      handles[static_cast<std::size_t>(r.action)] =
          sim.Every(act.period, [&fire, a = r.action] { fire(a); });
    } else {
      handles[static_cast<std::size_t>(r.action)] =
          sim.At(r.at, [&fire, a = r.action] { fire(a); });
    }
  }
  sim.RunAll();
  return log;
}

/// The reference: a plain (time, seq) priority queue with the engine's
/// observable semantics — ties fire in scheduling order (zero-delay events
/// included), Every re-arms after its callback, one-shot handles go stale
/// before their callback runs, cancels are idempotent.
FireLog RunOnReference(const Script& script) {
  struct Ev {
    SimTime time;
    std::uint64_t seq;
    int action;
  };
  auto later = [](const Ev& a, const Ev& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  };
  std::priority_queue<Ev, std::vector<Ev>, decltype(later)> queue(later);

  enum class State { kIdle, kPending, kDone };
  std::vector<State> state(script.actions.size(), State::kIdle);
  std::vector<int> fires(script.actions.size(), 0);
  SimTime now = 0;
  std::uint64_t next_seq = 0;
  FireLog log;

  auto schedule = [&](SimTime t, int a) {
    queue.push(Ev{t, next_seq++, a});
    state[static_cast<std::size_t>(a)] = State::kPending;
  };
  auto cancel = [&](int a) {
    if (state[static_cast<std::size_t>(a)] == State::kPending) {
      state[static_cast<std::size_t>(a)] = State::kDone;
    }
  };

  for (const Root& r : script.roots) {
    const Action& act = script.actions[static_cast<std::size_t>(r.action)];
    schedule(act.period > 0 ? act.period : r.at, r.action);
  }
  while (!queue.empty()) {
    const Ev e = queue.top();
    queue.pop();
    const auto a = static_cast<std::size_t>(e.action);
    if (state[a] != State::kPending) continue;
    now = e.time;
    const Action& act = script.actions[a];
    if (act.period == 0) state[a] = State::kDone;  // handle stale pre-callback
    log.emplace_back(now, e.action);
    const int n = ++fires[a];
    for (int c : act.cancels) cancel(c);
    if (n == 1) {
      for (const ChildOp& ch : act.children) {
        const Action& child =
            script.actions[static_cast<std::size_t>(ch.action)];
        schedule(child.period > 0
                     ? now + child.period
                     : now + std::max<SimDuration>(0, ch.delay),
                 ch.action);
      }
    }
    if (act.period > 0 && state[a] == State::kPending) {
      if (n >= act.max_fires) {
        state[a] = State::kDone;
      } else {
        queue.push(Ev{now + act.period, next_seq++, e.action});
      }
    }
  }
  return log;
}

/// Half the delays are exactly zero (the lane); the rest cover the near heap
/// band, the far wheel band, and kFarDelay +/- 1 (the heap/wheel edge) so one
/// timestamp can hold entries from all three backing stores at once.
SimDuration LaneBiasedDelay(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0:
    case 1:
    case 2:
    case 3:
      return 0;  // the lane
    case 4:
      return Simulation::kFarDelay + static_cast<SimDuration>(rng() % 3) - 1;
    case 5:
      return static_cast<SimDuration>(rng() % Simulation::kFarDelay);
    case 6:
      return Simulation::kFarDelay +
             static_cast<SimDuration>(rng() % Ms(20));  // far: wheel
    default:
      return static_cast<SimDuration>(rng() % Ms(1));
  }
}

Script MakeScript(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  constexpr int kActions = 160;
  constexpr int kRoots = 24;
  Script s;
  s.actions.resize(kActions);

  // Periodic actions: ~1 in 8. Short periods keep the Every path colliding
  // with lane timestamps; long ones exercise the wheel alongside the lane.
  for (Action& a : s.actions) {
    if (rng() % 8 == 0) {
      static constexpr SimDuration kPeriods[] = {Us(1),  Us(40), Us(64),
                                                 Us(700), Ms(5), Ms(50)};
      a.period = kPeriods[rng() % (sizeof(kPeriods) / sizeof(kPeriods[0]))];
      a.max_fires = 1 + static_cast<int>(rng() % 5);
    }
  }

  // A forest: roots take the first ids, every other action is the child of
  // exactly one earlier action, so nothing is double-scheduled. Frequent
  // root ties put several zero-delay chains at the same timestamp.
  for (int i = 0; i < kRoots; ++i) {
    s.roots.push_back(Root{static_cast<SimTime>(rng() % Ms(5)), i});
    if (rng() % 3 == 0 && i > 0) s.roots.back().at = s.roots[i - 1].at;  // tie
  }
  for (int i = kRoots; i < kActions; ++i) {
    const int parent = static_cast<int>(rng() % static_cast<std::uint64_t>(i));
    s.actions[static_cast<std::size_t>(parent)].children.push_back(
        ChildOp{LaneBiasedDelay(rng), i});
  }
  // Cancels: any action may cancel any other. With half the delays at zero,
  // many of these hit a lane entry from a callback running at the entry's
  // own timestamp — the lane's trickiest cancel case.
  for (int i = 0; i < kActions; ++i) {
    if (rng() % 3 == 0) {
      s.actions[static_cast<std::size_t>(i)].cancels.push_back(
          static_cast<int>(rng() % kActions));
    }
  }
  return s;
}

std::string FirstDivergence(const FireLog& a, const FireLog& b) {
  std::ostringstream os;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      os << "first divergence at fire " << i << ": (" << a[i].first << ", a"
         << a[i].second << ") vs (" << b[i].first << ", a" << b[i].second
         << ")";
      return os.str();
    }
  }
  os << "common prefix of " << n << " fires; sizes " << a.size() << " vs "
     << b.size();
  return os.str();
}

TEST(ImmediateLaneDifferential, MatchesHeapWheelAndReference) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Script script = MakeScript(seed);
    const FireLog ref = RunOnReference(script);
    for (const bool lane : {true, false}) {
      for (const bool wheel : {true, false}) {
        const FireLog log = RunOnSimulation(script, lane, wheel);
        EXPECT_EQ(log, ref)
            << "engine (lane=" << lane << ", wheel=" << wheel
            << ") diverged from reference, seed " << seed << "; "
            << FirstDivergence(log, ref);
      }
    }
    EXPECT_FALSE(ref.empty()) << "degenerate script, seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Lane-specific units.
// ---------------------------------------------------------------------------

TEST(ImmediateLane, RoutesOnZeroDelay) {
  Simulation sim;
  std::vector<int> order;
  sim.After(0, [&] { order.push_back(1); });
  sim.At(sim.Now(), [&] { order.push_back(2); });  // same thing, absolute
  sim.After(Us(1), [&] { order.push_back(3); });   // near future: heap
  const auto st = sim.stats();
  EXPECT_EQ(st.immediate_scheduled, 2u);
  EXPECT_EQ(st.immediate_occupancy, 2u);
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.stats().immediate_occupancy, 0u);
}

TEST(ImmediateLane, DisabledLaneUsesHeap) {
  Simulation sim;
  sim.SetImmediateLaneEnabled(false);
  EXPECT_FALSE(sim.immediate_lane_enabled());
  int fired = 0;
  sim.After(0, [&] { ++fired; });
  EXPECT_EQ(sim.stats().immediate_scheduled, 0u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(ImmediateLane, CancelInLaneNeverTouchesHeap) {
  Simulation sim;
  bool fired = false;
  EventHandle h = sim.After(0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(sim.pending_events(), 1u);
  h.Cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(sim.pending_events(), 0u);
  const auto st = sim.stats();
  EXPECT_EQ(st.immediate_cancelled, 1u);
  EXPECT_EQ(st.immediate_occupancy, 0u);
  EXPECT_EQ(st.cancelled_popped + st.cancelled_purged, 0u);
  sim.RunAll();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(ImmediateLane, CancelledRingTombstoneCannotKillRecycledSlot) {
  Simulation sim;
  bool a_fired = false;
  bool b_fired = false;
  EventHandle a = sim.After(0, [&] { a_fired = true; });
  a.Cancel();  // frees the slot while the ring entry still exists
  // Reuses the freed slot with a fresh generation; the stale ring entry must
  // be dropped at the lane front without affecting this event.
  EventHandle b = sim.After(0, [&] { b_fired = true; });
  sim.RunAll();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_FALSE(b.pending());
}

TEST(ImmediateLane, CallbackCanCancelLaterLaneEntryAtSameTimestamp) {
  Simulation sim;
  bool b_fired = false;
  EventHandle b;
  sim.After(0, [&] { b.Cancel(); });  // runs first, kills b while in-lane
  b = sim.After(0, [&] { b_fired = true; });
  sim.RunAll();
  EXPECT_FALSE(b_fired);
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_EQ(sim.stats().immediate_cancelled, 1u);
}

TEST(ImmediateLane, ZeroDelayChainsDoNotAdvanceTime) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 1000) sim.After(0, chain);
  };
  sim.At(Us(5), chain);
  sim.RunAll();
  EXPECT_EQ(depth, 1000);
  EXPECT_EQ(sim.Now(), Us(5));
  EXPECT_GE(sim.stats().immediate_scheduled, 999u);
}

TEST(ImmediateLane, TiesWithHeapAndWheelFollowScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  const SimTime t = Ms(10);
  sim.At(t, [&] { order.push_back(1); });  // wheel (t >= kFarDelay)
  sim.At(t, [&] {                          // wheel, cascades to the heap
    order.push_back(2);
    sim.After(0, [&] { order.push_back(4); });  // lane, newest seq: last
  });
  sim.At(t, [&] { order.push_back(3); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.Now(), t);
}

TEST(ImmediateLane, EveryNeverEntersLane) {
  Simulation sim;
  int fires = 0;
  EventHandle h = sim.Every(Us(1), [&] { ++fires; });
  sim.RunUntil(Us(10));
  EXPECT_EQ(fires, 10);  // fired at 1..10 us (RunUntil is inclusive)
  EXPECT_EQ(sim.stats().immediate_scheduled, 0u);
  h.Cancel();
}

TEST(ImmediateLane, StatsSurviveHeavyChurn) {
  Simulation sim;
  std::uint64_t fired = 0;
  for (int round = 0; round < 100; ++round) {
    EventHandle victims[4];
    for (int i = 0; i < 16; ++i) {
      EventHandle h = sim.After(0, [&] { ++fired; });
      if (i % 4 == 0) victims[i / 4] = h;
    }
    for (EventHandle& v : victims) v.Cancel();
    sim.RunAll();
  }
  const auto st = sim.stats();
  EXPECT_EQ(st.immediate_scheduled, 1600u);
  EXPECT_EQ(st.immediate_cancelled, 400u);
  EXPECT_EQ(st.immediate_occupancy, 0u);
  EXPECT_EQ(fired, 1200u);
  EXPECT_EQ(sim.events_fired(), 1200u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace grunt::sim
