#include "sim/timer_wheel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "util/time_types.h"

namespace grunt::sim {
namespace {

// ---------------------------------------------------------------------------
// Differential ordering harness: one randomized schedule script, executed
// three ways — wheel-enabled Simulation, wheel-disabled Simulation, and a
// naive std::priority_queue reference — must produce byte-identical firing
// sequences. The script mixes At/After/Every, in-callback scheduling and
// cancellation, same-time ties, delays on both sides of the kFarDelay
// heap/wheel boundary, cascade-boundary times and beyond-horizon delays
// (top-level clamp).
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

/// Runs the script on the real engine. `use_wheel` toggles the timing-wheel
/// fast path; both settings must observe identical behavior.
FireLog RunOnSimulation(const Script& script, bool use_wheel) {
  Simulation sim;
  sim.SetTimerWheelEnabled(use_wheel);
  std::vector<EventHandle> handles(script.actions.size());
  std::vector<int> fires(script.actions.size(), 0);
  FireLog log;

  std::function<void(int)> fire = [&](int a) {
    log.emplace_back(sim.Now(), a);
    const Action& act = script.actions[a];
    const int n = ++fires[a];
    for (int c : act.cancels) handles[static_cast<std::size_t>(c)].Cancel();
    if (n == 1) {  // children are single-schedule; only the first tick spawns
      for (const ChildOp& ch : act.children) {
        const Action& child = script.actions[static_cast<std::size_t>(
            ch.action)];
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

/// The reference: a plain (time, seq) priority queue with the same observable
/// semantics — ties fire in scheduling order, Every re-arms after its
/// callback (so in-callback children get earlier sequence numbers), one-shot
/// handles go stale before their callback runs, cancels are idempotent.
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
      // Cancelled mid-callback means no re-arm (and no sequence number),
      // mirroring the engine's kAuxCancelled check after the callback.
      if (n >= act.max_fires) {
        state[a] = State::kDone;
      } else {
        queue.push(Ev{now + act.period, next_seq++, e.action});
      }
    }
  }
  return log;
}

/// Times that stress the wheel's bucket math: level boundaries +/- 1, exact
/// bucket widths, the kFarDelay heap/wheel cutoff, and beyond-horizon values.
SimDuration InterestingDelay(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0:
      return static_cast<SimDuration>(rng() % 64);  // within one tick: heap
    case 1:
      // BucketWidth(1) == kFarDelay: one below stays on the heap, the rest
      // go to the wheel.
      return TimerWheel::BucketWidth(1) + static_cast<SimDuration>(rng() % 3) -
             1;
    case 2:
      return TimerWheel::BucketWidth(2) + static_cast<SimDuration>(rng() % 3) -
             1;
    case 3:
      return TimerWheel::Horizon(TimerWheel::kLevels - 1) +
             static_cast<SimDuration>(rng() % Sec(100));  // top-level clamp
    case 4:
      return static_cast<SimDuration>(rng() % 4096);
    default:
      return static_cast<SimDuration>(rng() % Sec(2));
  }
}

Script MakeScript(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  constexpr int kActions = 160;
  constexpr int kRoots = 24;
  Script s;
  s.actions.resize(kActions);

  // Periodic actions: ~1 in 8, with periods spanning wheel levels (some
  // below kFarDelay to keep the Every heap path covered too).
  for (Action& a : s.actions) {
    if (rng() % 8 == 0) {
      static constexpr SimDuration kPeriods[] = {Us(40),   Us(64),  Us(700),
                                                 Ms(5),    Ms(50),  Ms(400),
                                                 Sec(3)};
      a.period = kPeriods[rng() % (sizeof(kPeriods) / sizeof(kPeriods[0]))];
      a.max_fires = 1 + static_cast<int>(rng() % 5);
    }
  }

  // A forest: roots take the first ids, every other action is the child of
  // exactly one earlier action, so nothing is double-scheduled.
  for (int i = 0; i < kRoots; ++i) {
    s.roots.push_back(Root{static_cast<SimTime>(rng() % Ms(40)), i});
    if (rng() % 4 == 0 && i > 0) s.roots.back().at = s.roots[i - 1].at;  // tie
  }
  for (int i = kRoots; i < kActions; ++i) {
    const int parent = static_cast<int>(rng() % static_cast<std::uint64_t>(i));
    s.actions[static_cast<std::size_t>(parent)].children.push_back(
        ChildOp{InterestingDelay(rng), i});
  }
  // Cancels: any action may cancel any other (stale/idle targets are
  // deliberate no-ops on both engines).
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

TEST(TimerWheelDifferential, MatchesHeapAndReferenceOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Script script = MakeScript(seed);
    const FireLog wheel = RunOnSimulation(script, /*use_wheel=*/true);
    const FireLog heap = RunOnSimulation(script, /*use_wheel=*/false);
    const FireLog ref = RunOnReference(script);
    EXPECT_EQ(wheel, heap) << "wheel vs heap diverged, seed " << seed << "; "
                           << FirstDivergence(wheel, heap);
    EXPECT_EQ(wheel, ref) << "wheel vs reference diverged, seed " << seed
                          << "; " << FirstDivergence(wheel, ref);
    EXPECT_FALSE(wheel.empty()) << "degenerate script, seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Wheel-specific units.
// ---------------------------------------------------------------------------

TEST(TimerWheel, RoutesByDelayAlone) {
  // kFarDelay is the only heap/wheel boundary, measured from Now(): one
  // microsecond short stays on the heap, exactly kFarDelay goes to the wheel.
  constexpr SimDuration kFar = Simulation::kFarDelay;
  Simulation sim;
  int fired = 0;
  sim.RunUntil(Ms(1));  // a nonzero Now() so At and After measure differently
  sim.After(kFar - 1, [&] { ++fired; });
  EXPECT_EQ(sim.stats().wheel_scheduled, 0u);
  sim.After(kFar, [&] { ++fired; });
  EXPECT_EQ(sim.stats().wheel_scheduled, 1u);
  sim.At(sim.Now() + kFar - 1, [&] { ++fired; });
  EXPECT_EQ(sim.stats().wheel_scheduled, 1u);
  sim.At(sim.Now() + kFar, [&] { ++fired; });
  EXPECT_EQ(sim.stats().wheel_scheduled, 2u);
  EXPECT_EQ(sim.stats().wheel_occupancy, 2u);
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.RunAll();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.stats().wheel_occupancy, 0u);
  EXPECT_EQ(sim.stats().wheel_to_heap, 2u);
}

TEST(TimerWheel, EveryReArmRoutesByPeriod) {
  // Each re-arm is routed like a fresh schedule at Now() + period: a series
  // one microsecond short of kFarDelay never touches the wheel, one of
  // exactly kFarDelay files its first tick and every re-arm there.
  constexpr SimDuration kFar = Simulation::kFarDelay;
  Simulation sim;
  int near_ticks = 0;
  int far_ticks = 0;
  EventHandle near = sim.Every(kFar - 1, [&] { ++near_ticks; });
  EXPECT_EQ(sim.stats().wheel_scheduled, 0u);
  EventHandle far = sim.Every(kFar, [&] { ++far_ticks; });
  EXPECT_EQ(sim.stats().wheel_scheduled, 1u);
  sim.RunUntil(3 * kFar);
  EXPECT_EQ(near_ticks, 3);
  EXPECT_EQ(far_ticks, 3);
  EXPECT_EQ(sim.stats().wheel_scheduled, 1u + 3u);  // first tick + 3 re-arms
  near.Cancel();
  far.Cancel();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TimerWheel, DisabledEngineNeverUsesWheel) {
  Simulation sim;
  sim.SetTimerWheelEnabled(false);
  int fired = 0;
  sim.After(Ms(10), [&] { ++fired; });
  EXPECT_EQ(sim.stats().wheel_scheduled, 0u);
  sim.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CancelInBucketNeverTouchesHeap) {
  Simulation sim;
  bool fired = false;
  EventHandle h = sim.After(Ms(100), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(sim.pending_events(), 1u);
  h.Cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(sim.pending_events(), 0u);
  const auto st = sim.stats();
  EXPECT_EQ(st.wheel_cancelled, 1u);
  EXPECT_EQ(st.cancelled_popped + st.cancelled_purged, 0u);
  sim.RunAll();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(TimerWheel, CancelAfterCascadeTakesHeapPath) {
  Simulation sim;
  bool fired = false;
  // Ms(100) lands in level 1 (bucket start 98304 us). Running to 99970 us
  // first cascades that bucket into level 0 (bucket start 99968 us), then
  // flushes the level-0 bucket into the heap — without firing the timer.
  EventHandle h = sim.After(Ms(100), [&] { fired = true; });
  sim.RunUntil(Us(99970));
  EXPECT_GE(sim.stats().wheel_cascades, 2u);
  EXPECT_EQ(sim.stats().wheel_to_heap, 1u);
  EXPECT_EQ(sim.stats().wheel_occupancy, 0u);
  EXPECT_TRUE(h.pending());
  h.Cancel();  // entry now lives in the heap: the normal lazy-cancel path
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(sim.stats().wheel_cancelled, 0u);
  sim.RunAll();
  EXPECT_FALSE(fired);
}

TEST(TimerWheel, CancelledBucketTombstoneCannotKillRecycledSlot) {
  Simulation sim;
  bool a_fired = false;
  bool b_fired = false;
  EventHandle a = sim.After(Ms(50), [&] { a_fired = true; });
  a.Cancel();  // frees the slot while the bucket entry still exists
  // Reuses the freed slot with a fresh generation; the stale bucket entry
  // must be dropped at cascade without affecting this event.
  EventHandle b = sim.After(Ms(60), [&] { b_fired = true; });
  sim.RunAll();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_FALSE(b.pending());
}

TEST(TimerWheel, EveryReArmsAcrossWheelLevels) {
  Simulation sim;
  std::vector<SimTime> at;
  // Sec(3) sits in level 2; each re-arm re-files through the wheel.
  EventHandle h = sim.Every(Sec(3), [&] { at.push_back(sim.Now()); });
  sim.RunUntil(Sec(10));
  EXPECT_EQ(at, (std::vector<SimTime>{Sec(3), Sec(6), Sec(9)}));
  EXPECT_TRUE(h.pending());
  EXPECT_GE(sim.stats().wheel_scheduled, 3u);
  h.Cancel();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunUntil(Sec(20));
  EXPECT_EQ(at.size(), 3u);
}

TEST(TimerWheel, BeyondHorizonTimersFireAtExactTimes) {
  Simulation sim;
  std::vector<int> order;
  const SimTime far = TimerWheel::Horizon(TimerWheel::kLevels - 1) * 3 + 17;
  sim.At(far + Us(1), [&] { order.push_back(2); });
  sim.At(far, [&] { order.push_back(1); });
  sim.At(far + Us(1), [&] { order.push_back(3); });  // tie
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), far + Us(1));
  EXPECT_GE(sim.stats().wheel_cascades, 3u);  // clamp re-cascades make progress
}

TEST(TimerWheel, StandaloneInsertCascadeRoundTrip) {
  TimerWheel wheel;
  std::vector<TimerWheel::Entry> out;
  // One entry per level plus an overflow entry, inserted out of order.
  const SimTime times[] = {Us(100), Ms(5), Sec(1), Sec(600), Sec(5000)};
  std::uint64_t seq = 0;
  for (int i = 4; i >= 0; --i) {
    wheel.Insert(TimerWheel::Entry{times[i], seq++, static_cast<uint32_t>(i),
                                   1},
                 /*ref=*/0);
  }
  EXPECT_EQ(wheel.entries(), 5u);
  EXPECT_LE(wheel.EarliestBound(), times[0]);
  while (!wheel.empty()) {
    wheel.CascadeEarliest([](const TimerWheel::Entry&) { return true; },
                          [&](const TimerWheel::Entry& e) {
                            out.push_back(e);
                          });
  }
  ASSERT_EQ(out.size(), 5u);
  // Emission happens bucket-by-bucket in bound order, so times arrive
  // non-decreasing; each entry keeps its original payload.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].time, times[i]);
    EXPECT_EQ(out[i].slot, static_cast<std::uint32_t>(i));
  }
}

}  // namespace
}  // namespace grunt::sim
