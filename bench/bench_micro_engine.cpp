// Micro-benchmarks (google-benchmark) for the hot paths of the substrate:
// event scheduling/firing, end-to-end simulated request throughput, the
// Section III model equations, Kalman updates, and dependency-group
// union-find. These bound how much simulated time a bench second buys.
//
// Besides the google-benchmark suite, main() measures the engine directly
// and writes `BENCH_engine.json` (path overridable via GRUNT_BENCH_JSON):
// events/sec for the main engine paths plus wall-clock for a fan-out of
// independent mini-campaigns at 1 thread and at ParallelRunner's default
// thread count, with a hash check that the parallel run produced the
// byte-identical result stream. Set GRUNT_BENCH_SKIP_JSON=1 to skip it
// (e.g. when only the google-benchmark output is wanted).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "attack/kalman.h"
#include "campaign_jobs.h"
#include "fixtures_path.h"
#include "microsvc/cluster.h"
#include "model/queuing_model.h"
#include "sim/simulation.h"
#include "telemetry/engine_metrics.h"
#include "trace/dependency.h"
#include "util/json.h"
#include "util/parallel_runner.h"
#include "util/rng.h"

namespace grunt {
namespace {

void BM_EventScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.At(i, [&sink] { ++sink; });
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleFire);

void BM_EventScheduleFireHeapCallback(benchmark::State& state) {
  // Captures larger than InplaceFunction::kInlineCapacity spill to the
  // heap; this bounds the cost of the slow path relative to the SBO path.
  struct BigCapture {
    char pad[sim::InplaceFunction::kInlineCapacity] = {};
    int* sink = nullptr;
  };
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.At(i, [big = BigCapture{{}, &sink}] { ++*big.sink; });
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sink);
    if (sim.stats().heap_callbacks != 1000) {
      state.SkipWithError("expected heap-path callbacks");
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleFireHeapCallback);

void BM_EveryRearmFire(benchmark::State& state) {
  // A single repeating event firing 1000 times: the callback is stored once
  // and the entry re-arms in place, so this is pure heap + fire cost.
  for (auto _ : state) {
    sim::Simulation sim;
    int ticks = 0;
    auto handle = sim.Every(1, [&ticks] { ++ticks; });
    sim.RunUntil(1000);
    handle.Cancel();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EveryRearmFire);

void BM_CancelHeavyCompaction(benchmark::State& state) {
  // Schedule 1000, cancel 750 up front: exercises the generation-counter
  // cancellation and the lazy purge that compacts the heap once cancelled
  // entries outnumber live ones.
  std::vector<sim::EventHandle> handles;
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    handles.clear();
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.At(i, [&sink] { ++sink; }));
    }
    for (int i = 0; i < 1000; ++i) {
      if (i % 4 != 0) handles[i].Cancel();
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CancelHeavyCompaction);

/// The RPC-timeout churn profile: schedule 1000 timeouts 25 ms or more out
/// (past kFarDelay, so wheel-filed) from staggered issue times, cancel 99% of
/// them (the replies that made it), let 1% fire. With the wheel this is O(1)
/// bucket pushes and generation-bump cancels; on the heap every dead entry
/// has to be sifted in and purged out.
void TimerChurn(benchmark::State& state, bool use_wheel) {
  // One long-lived engine: each iteration is a steady-state churn round, not
  // a cold start, so the numbers isolate the timer path itself.
  sim::Simulation sim;
  sim.SetTimerWheelEnabled(use_wheel);
  int sink = 0;
  std::vector<sim::EventHandle> handles;
  handles.reserve(1000);
  for (auto _ : state) {
    handles.clear();
    const SimTime base = sim.Now();
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(
          sim.At(base + i * Us(100) + Ms(25), [&sink] { ++sink; }));
    }
    for (int i = 0; i < 1000; ++i) {
      if (i % 100 != 0) handles[i].Cancel();
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}

void BM_TimerChurnWheel(benchmark::State& state) { TimerChurn(state, true); }
BENCHMARK(BM_TimerChurnWheel);

void BM_TimerChurnHeap(benchmark::State& state) { TimerChurn(state, false); }
BENCHMARK(BM_TimerChurnHeap);

/// The Cluster dispatch profile: bursts of zero-delay events (grant-slot /
/// resolve-call hand-offs) scheduled and fired at one timestamp, with a
/// quarter cancelled before they run. With the lane this is ring pushes,
/// generation-bump cancels and front pops; on the heap every same-time
/// entry sifts in and tournaments out.
void ImmediateChurn(benchmark::State& state, bool use_lane) {
  // One long-lived engine, as in TimerChurn: steady-state rounds, not cold
  // starts.
  sim::Simulation sim;
  sim.SetImmediateLaneEnabled(use_lane);
  int sink = 0;
  std::vector<sim::EventHandle> handles;
  handles.reserve(1000);
  for (auto _ : state) {
    handles.clear();
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.After(0, [&sink] { ++sink; }));
    }
    for (int i = 0; i < 1000; i += 4) handles[i].Cancel();
    sim.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}

void BM_ImmediateChurnLane(benchmark::State& state) {
  ImmediateChurn(state, true);
}
BENCHMARK(BM_ImmediateChurnLane);

void BM_ImmediateChurnHeap(benchmark::State& state) {
  ImmediateChurn(state, false);
}
BENCHMARK(BM_ImmediateChurnHeap);

void BM_SimulatedRequestThroughput(benchmark::State& state) {
  const auto app = bench_fixtures::SingleChainApp();
  for (auto _ : state) {
    sim::Simulation sim;
    microsvc::Cluster cluster(sim, app, 1);
    for (int i = 0; i < 200; ++i) {
      sim.At(i * Ms(1), [&cluster] {
        cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
      });
    }
    sim.RunAll();
    benchmark::DoNotOptimize(cluster.completed_count());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_SimulatedRequestThroughput);

void BM_ModelEquations(benchmark::State& state) {
  const model::Stage um{32, 1000, 1500, 200};
  const model::Stage bn{40, 200, 300, 100};
  const model::Stage stages[] = {um, bn};
  const model::Burst burst{500, 0.5};
  for (auto _ : state) {
    double acc = model::QueueFromCrossTierBlocking(burst, stages);
    acc += model::MillibottleneckLength(burst, bn);
    acc += model::DamageLatency(acc, bn);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ModelEquations);

void BM_KalmanUpdate(benchmark::State& state) {
  attack::ScalarKalman kf(1.0, 25.0, 0.0, 100.0);
  double x = 0;
  for (auto _ : state) {
    x = kf.Update(x + 1.0);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_KalmanUpdate);

void BM_DependencyGroupsUnionFind(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RngStream rng(1, "bench.uf");
  for (auto _ : state) {
    trace::DependencyGroups groups(n);
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      groups.Union(static_cast<std::int32_t>(i),
                   static_cast<std::int32_t>(
                       rng.NextInt(0, static_cast<std::int64_t>(n) - 1)));
    }
    benchmark::DoNotOptimize(groups.Groups().size());
  }
}
BENCHMARK(BM_DependencyGroupsUnionFind)->Arg(64)->Arg(1024);

void BM_RngExponential(benchmark::State& state) {
  RngStream rng(1, "bench.rng");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextExpDuration(Ms(7)));
  }
}
BENCHMARK(BM_RngExponential);

// ---------------------------------------------------------------------------
// BENCH_engine.json: direct measurements, independent of google-benchmark.

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Events/sec of schedule+fire batches of `kBatch` one-shot events, run for
/// ~0.25 s. `heap_path` switches the closure to one that spills past the SBO.
double MeasureEventsPerSec(bool heap_path) {
  constexpr int kBatch = 1000;
  struct BigCapture {
    char pad[sim::InplaceFunction::kInlineCapacity] = {};
    int* sink = nullptr;
  };
  std::uint64_t events = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    sim::Simulation sim;
    int sink = 0;
    for (int i = 0; i < kBatch; ++i) {
      if (heap_path) {
        sim.At(i, [big = BigCapture{{}, &sink}] { ++*big.sink; });
      } else {
        sim.At(i, [&sink] { ++sink; });
      }
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sink);
    events += kBatch;
    elapsed = SecondsSince(t0);
  } while (elapsed < 0.25);
  return static_cast<double>(events) / elapsed;
}

/// Events/sec of the schedule/cancel timer-churn loop (see TimerChurn): N
/// timeouts scheduled, 99% cancelled, 1% fired. Counts scheduled events, so
/// the wheel/heap numbers are directly comparable. `stats_out` (optional)
/// receives the engine counters accumulated over the run.
double MeasureTimerChurnPerSec(bool use_wheel,
                               sim::Simulation::EngineStats* stats_out =
                                   nullptr) {
  constexpr int kBatch = 1000;
  sim::Simulation sim;
  sim.SetTimerWheelEnabled(use_wheel);
  int sink = 0;
  std::vector<sim::EventHandle> handles;
  handles.reserve(kBatch);
  std::uint64_t events = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    handles.clear();
    const SimTime base = sim.Now();
    for (int i = 0; i < kBatch; ++i) {
      handles.push_back(
          sim.At(base + i * Us(100) + Ms(25), [&sink] { ++sink; }));
    }
    for (int i = 0; i < kBatch; ++i) {
      if (i % 100 != 0) handles[i].Cancel();
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sink);
    events += kBatch;
    elapsed = SecondsSince(t0);
  } while (elapsed < 0.25);
  if (stats_out != nullptr) *stats_out = sim.stats();
  return static_cast<double>(events) / elapsed;
}

/// Events/sec of the immediate-lane churn loop (see ImmediateChurn): 1000
/// zero-delay events per round, every 4th cancelled before the run drains.
/// Counts scheduled events so the lane/heap numbers are directly
/// comparable. `stats_out` (optional) receives the engine counters.
double MeasureImmediateChurnPerSec(bool use_lane,
                                   sim::Simulation::EngineStats* stats_out =
                                       nullptr) {
  constexpr int kBatch = 1000;
  sim::Simulation sim;
  sim.SetImmediateLaneEnabled(use_lane);
  int sink = 0;
  std::vector<sim::EventHandle> handles;
  handles.reserve(kBatch);
  std::uint64_t events = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    handles.clear();
    for (int i = 0; i < kBatch; ++i) {
      handles.push_back(sim.After(0, [&sink] { ++sink; }));
    }
    for (int i = 0; i < kBatch; i += 4) handles[i].Cancel();
    sim.RunAll();
    benchmark::DoNotOptimize(sink);
    events += kBatch;
    elapsed = SecondsSince(t0);
  } while (elapsed < 0.25);
  if (stats_out != nullptr) *stats_out = sim.stats();
  return static_cast<double>(events) / elapsed;
}

struct CampaignTiming {
  double wall_sec = 0;
  std::vector<std::uint64_t> hashes;
};

// The campaign body (bench::MiniCampaignHash) lives in campaign_jobs.cpp,
// registered as the "mini_campaign" kind, so the timing below runs the same
// simulation a campaign executor's workers do.
CampaignTiming TimeCampaigns(unsigned threads, std::size_t jobs) {
  util::ParallelRunner pool(threads);
  CampaignTiming out;
  const auto t0 = Clock::now();
  out.hashes = pool.Map<std::uint64_t>(jobs, [](std::size_t i) {
    return bench::MiniCampaignHash(i);
  });
  out.wall_sec = SecondsSince(t0);
  return out;
}

/// Rounds like the old "%.0f" / "%.2f" / "%.3f" emitters so the JSON stays
/// tidy (util/json prints integral doubles without a decimal point).
json::Value Round0(double x) { return json::Value(std::round(x)); }
json::Value Round2(double x) {
  return json::Value(std::round(x * 100.0) / 100.0);
}
json::Value Round3(double x) {
  return json::Value(std::round(x * 1000.0) / 1000.0);
}

void WriteEngineJson() {
  const char* path = std::getenv("GRUNT_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') path = "BENCH_engine.json";

  std::fprintf(stderr, "measuring engine events/sec...\n");
  const double inline_eps = MeasureEventsPerSec(/*heap_path=*/false);
  const double heap_eps = MeasureEventsPerSec(/*heap_path=*/true);
  std::fprintf(stderr, "measuring timer churn (wheel vs heap)...\n");
  sim::Simulation::EngineStats wheel_stats;
  const double churn_wheel =
      MeasureTimerChurnPerSec(/*use_wheel=*/true, &wheel_stats);
  const double churn_heap = MeasureTimerChurnPerSec(/*use_wheel=*/false);
  std::fprintf(stderr, "measuring immediate churn (lane vs heap)...\n");
  sim::Simulation::EngineStats lane_stats;
  const double imm_lane =
      MeasureImmediateChurnPerSec(/*use_lane=*/true, &lane_stats);
  const double imm_heap = MeasureImmediateChurnPerSec(/*use_lane=*/false);

  constexpr std::size_t kJobs = 8;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const unsigned par_threads = util::ParallelRunner::DefaultThreads();
  // A speedup measured against itself on a 1-thread box is noise, not data:
  // record the topology and skip the comparison entirely.
  const bool can_compare = par_threads > 1;
  std::fprintf(stderr, "timing %zu mini-campaigns at 1%s threads...\n", kJobs,
               can_compare ? " and N" : "");
  const CampaignTiming serial = TimeCampaigns(1, kJobs);
  CampaignTiming parallel;
  bool identical = false;
  if (can_compare) {
    parallel = TimeCampaigns(par_threads, kJobs);
    identical = serial.hashes == parallel.hashes;
  }

  json::Object root;
  root.emplace_back("schema", 4);
  {
    json::Object o;
    o.emplace_back("schedule_fire_events_per_sec", Round0(inline_eps));
    o.emplace_back("schedule_fire_heap_events_per_sec", Round0(heap_eps));
    o.emplace_back("timer_churn_wheel_events_per_sec", Round0(churn_wheel));
    o.emplace_back("timer_churn_heap_events_per_sec", Round0(churn_heap));
    o.emplace_back("timer_churn_wheel_speedup",
                   Round2(churn_heap > 0 ? churn_wheel / churn_heap : 0.0));
    // Full engine counters from the wheel churn run, through the same
    // telemetry exporter every other metrics dump uses (the "wheel"
    // subobject carries scheduled/cancelled_in_bucket/cascades/to_heap).
    o.emplace_back("timer_churn_wheel_counters",
                   telemetry::EngineStatsJson(wheel_stats));
    o.emplace_back("immediate_churn_lane_events_per_sec", Round0(imm_lane));
    o.emplace_back("immediate_churn_heap_events_per_sec", Round0(imm_heap));
    o.emplace_back("immediate_churn_lane_speedup",
                   Round2(imm_heap > 0 ? imm_lane / imm_heap : 0.0));
    // Lane counters from the lane churn run (scheduled/cancelled/occupancy),
    // through the immediate-specific slice of the telemetry exporter.
    o.emplace_back("immediate_churn_lane_counters",
                   telemetry::ImmediateStatsJson(lane_stats));
    root.emplace_back("engine", json::Value(std::move(o)));
  }
  {
    json::Object o;
    o.emplace_back("jobs", static_cast<std::int64_t>(kJobs));
    o.emplace_back("hardware_concurrency",
                   static_cast<std::int64_t>(hw_threads));
    o.emplace_back("threads", static_cast<std::int64_t>(par_threads));
    o.emplace_back("wall_sec_1_thread", Round3(serial.wall_sec));
    if (can_compare) {
      o.emplace_back("wall_sec_n_threads", Round3(parallel.wall_sec));
      o.emplace_back("speedup",
                     Round2(parallel.wall_sec > 0
                                ? serial.wall_sec / parallel.wall_sec
                                : 0.0));
      o.emplace_back("results_identical", identical);
    } else {
      o.emplace_back("speedup", json::Value(nullptr));
      o.emplace_back("speedup_skipped", "only 1 thread available");
    }
    root.emplace_back("campaign_fanout", json::Value(std::move(o)));
  }
  try {
    json::WriteFile(path, json::Value(std::move(root)));
  } catch (const json::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return;
  }
  if (can_compare) {
    std::fprintf(stderr, "wrote %s (results_identical=%s)\n", path,
                 identical ? "true" : "false");
  } else {
    std::fprintf(stderr, "wrote %s (speedup skipped: 1 thread)\n", path);
  }
}

}  // namespace
}  // namespace grunt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const char* skip = std::getenv("GRUNT_BENCH_SKIP_JSON");
  if (skip == nullptr || skip[0] == '\0' || skip[0] == '0') {
    grunt::WriteEngineJson();
  }
  return 0;
}
