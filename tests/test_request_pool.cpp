// The pooled request lifecycle: SlabPool/RingBuffer semantics, crash/restart
// interacting with pooled state (queued-burst kills, crash-to-zero with
// waiters pending, re-admission ordering), handle-generation safety for
// orphaned attempts, and pool reuse under steady traffic. The crash/orphan
// tests double as use-after-free probes for recycled slots under the ASan CI
// job.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fixtures.h"
#include "microsvc/cluster.h"
#include "sim/ring_buffer.h"
#include "sim/slab_pool.h"

namespace grunt {
namespace {

using grunt::testing::Svc;
using grunt::testing::Type;
using microsvc::Application;
using microsvc::Cluster;
using microsvc::CompletionRecord;
using microsvc::Outcome;
using microsvc::RequestClass;
using microsvc::ServiceId;

// --------------------------------------------------------------------------
// SlabPool

TEST(SlabPool, AcquireReleaseRecyclesSlots) {
  sim::SlabPool<int> pool;
  const auto a = pool.Acquire();
  pool[a] = 41;
  const auto b = pool.Acquire();
  pool[b] = 42;
  EXPECT_NE(a, b);
  EXPECT_EQ(*pool.Get(a), 41);
  EXPECT_EQ(*pool.Get(b), 42);

  pool.Release(a);
  const auto c = pool.Acquire();  // LIFO free list: reuses a's slot
  EXPECT_EQ(c.slot, a.slot);
  EXPECT_NE(c.gen, a.gen);
  // The record is recycled, not destroyed: the old value survives.
  EXPECT_EQ(*pool.Get(c), 41);
}

TEST(SlabPool, StaleAndNullHandlesDereferenceToNull) {
  sim::SlabPool<int> pool;
  EXPECT_EQ(pool.Get(sim::PoolHandle{}), nullptr);
  EXPECT_FALSE(static_cast<bool>(sim::PoolHandle{}));

  const auto h = pool.Acquire();
  EXPECT_TRUE(pool.Alive(h));
  pool.Release(h);
  EXPECT_FALSE(pool.Alive(h));
  EXPECT_EQ(pool.Get(h), nullptr);
  // Recycling the slot must not resurrect the stale handle.
  const auto h2 = pool.Acquire();
  EXPECT_EQ(h2.slot, h.slot);
  EXPECT_EQ(pool.Get(h), nullptr);
  EXPECT_NE(pool.Get(h2), nullptr);
}

TEST(SlabPool, GrowsByChunksAndCountsStats) {
  sim::SlabPool<int> pool;
  std::vector<sim::PoolHandle> handles;
  for (int i = 0; i < 600; ++i) handles.push_back(pool.Acquire());
  const auto& st = pool.stats();
  EXPECT_EQ(st.live, 600u);
  EXPECT_EQ(st.high_water, 600u);
  EXPECT_EQ(st.acquires, 600u);
  EXPECT_GE(st.capacity, 600u);
  EXPECT_EQ(st.capacity % 256, 0u);  // whole chunks
  for (auto h : handles) pool.Release(h);
  EXPECT_EQ(pool.stats().live, 0u);
  EXPECT_EQ(pool.stats().high_water, 600u);
}

TEST(SlabPool, PointersStayValidAcrossGrowth) {
  sim::SlabPool<int> pool;
  const auto first = pool.Acquire();
  int* p = pool.Get(first);
  *p = 7;
  for (int i = 0; i < 1000; ++i) pool.Acquire();  // forces several chunks
  EXPECT_EQ(pool.Get(first), p);  // chunked storage: no reallocation
  EXPECT_EQ(*p, 7);
}

// --------------------------------------------------------------------------
// RingBuffer

TEST(RingBuffer, FifoAcrossGrowthAndWrap) {
  sim::RingBuffer<int> rb;
  // Interleave pushes and pops so the live window wraps the backing array
  // several times while it also grows.
  int next_push = 0, next_pop = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) rb.push_back(next_push++);
    for (int i = 0; i < 5; ++i) {
      ASSERT_FALSE(rb.empty());
      EXPECT_EQ(rb.front(), next_pop);
      EXPECT_EQ(rb.pop_front(), next_pop++);
    }
  }
  EXPECT_EQ(rb.size(), static_cast<std::size_t>(next_push - next_pop));
  for (std::size_t i = 0; i < rb.size(); ++i) {
    EXPECT_EQ(rb[i], next_pop + static_cast<int>(i));
  }
  while (!rb.empty()) EXPECT_EQ(rb.pop_front(), next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

TEST(RingBuffer, PopFrontMovesOutMoveOnlyValues) {
  sim::RingBuffer<std::unique_ptr<std::string>> rb;
  rb.push_back(std::make_unique<std::string>("a"));
  rb.push_back(std::make_unique<std::string>("b"));
  auto a = rb.pop_front();
  EXPECT_EQ(*a, "a");
  EXPECT_EQ(rb.size(), 1u);
  rb.clear();
  EXPECT_TRUE(rb.empty());
}

// --------------------------------------------------------------------------
// Crash/Restart over pooled request state

/// One service, deterministic bursts, tight CPU so bursts queue.
Application TinyApp(std::int32_t threads, std::int32_t cores) {
  Application::Builder b;
  b.SetName("tiny")
      .SetServiceTimeDist(microsvc::ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  b.AddService(Svc("s", threads, cores));
  b.AddRequestType(Type("t", {{0, Ms(10), 0}}));
  return std::move(b).Build();
}

TEST(PooledCrash, CrashKillsQueuedNotYetRunningBurst) {
  // threads=4, cores=1: both requests get slots, but only the first burst
  // runs — the second sits in the CPU queue when the crash lands.
  const Application app = TinyApp(/*threads=*/4, /*cores=*/1);
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  std::vector<CompletionRecord> recs;
  for (int i = 0; i < 2; ++i) {
    cluster.Submit(0, RequestClass::kLegit, false, 1,
                   [&](const CompletionRecord& r) { recs.push_back(r); });
  }
  sim.At(Ms(5), [&] {
    EXPECT_EQ(cluster.service(0).cpu_busy(), 1);
    EXPECT_EQ(cluster.service(0).cpu_queue_length(), 1);
    cluster.service(0).Crash();
  });
  sim.RunAll();
  ASSERT_EQ(recs.size(), 2u);
  for (const auto& r : recs) EXPECT_EQ(r.outcome, Outcome::kFailed);
  EXPECT_EQ(cluster.service(0).killed_bursts(), 2);
  EXPECT_EQ(cluster.service(0).completed_bursts(), 0);
  EXPECT_EQ(cluster.service(0).slots_in_use(), 0);
  // Full drain: every pooled record went back to its free list.
  const auto st = cluster.lifecycle_stats();
  EXPECT_EQ(st.requests.live, 0u);
  EXPECT_EQ(st.calls.live, 0u);
  EXPECT_EQ(st.hops.live, 0u);
}

TEST(PooledCrash, CrashToZeroThenRestartReadmitsWaitersInOrder) {
  // threads=1: request 0 holds the only slot; 1..3 wait on the slot queue.
  const Application app = TinyApp(/*threads=*/1, /*cores=*/1);
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  std::vector<CompletionRecord> recs;
  const auto log = [&](const CompletionRecord& r) { recs.push_back(r); };
  for (int i = 0; i < 4; ++i) {
    cluster.Submit(0, RequestClass::kLegit, false, static_cast<std::uint64_t>(i),
                   log);
  }
  sim.At(Ms(5), [&] { cluster.service(0).Crash(); });  // kills request 0
  sim.At(Ms(50), [&] { cluster.service(0).Restart(); });
  sim.RunAll();

  ASSERT_EQ(recs.size(), 4u);
  // The slot holder dies with the crash; the waiters survive (they held no
  // burst) and are re-admitted FIFO after the restart.
  EXPECT_EQ(recs[0].outcome, Outcome::kFailed);
  EXPECT_EQ(recs[0].client_id, 0u);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(recs[static_cast<std::size_t>(i)].outcome, Outcome::kOk);
    EXPECT_EQ(recs[static_cast<std::size_t>(i)].client_id,
              static_cast<std::uint64_t>(i));
    EXPECT_GE(recs[static_cast<std::size_t>(i)].end, Ms(50));
  }
  // Serial service, FIFO re-admission: completions are 10 ms apart in
  // submission order.
  EXPECT_EQ(recs[2].end - recs[1].end, Ms(10));
  EXPECT_EQ(recs[3].end - recs[2].end, Ms(10));
  EXPECT_EQ(cluster.service(0).replicas(), 1);
  const auto st = cluster.lifecycle_stats();
  EXPECT_EQ(st.requests.live + st.calls.live + st.hops.live, 0u);
}

TEST(PooledCrash, RepeatedCrashRestartCyclesRecycleSlotsSafely) {
  // Hammer the pool recycling paths: submit → crash → restart, ten cycles.
  // Under ASan this is the use-after-free probe for recycled slots.
  const Application app = TinyApp(/*threads=*/2, /*cores=*/1);
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  int failed = 0, ok = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    const SimTime base = Ms(100) * cycle;
    sim.At(base, [&] {
      for (int i = 0; i < 3; ++i) {
        cluster.Submit(0, RequestClass::kLegit, false, 1,
                       [&](const CompletionRecord& r) {
                         (r.outcome == Outcome::kOk ? ok : failed)++;
                       });
      }
    });
    sim.At(base + Ms(5), [&] { cluster.service(0).Crash(); });
    sim.At(base + Ms(20), [&] { cluster.service(0).Restart(); });
  }
  sim.RunAll();
  EXPECT_EQ(ok + failed, 30);
  EXPECT_GT(failed, 0);
  EXPECT_GT(ok, 0);
  const auto st = cluster.lifecycle_stats();
  EXPECT_EQ(st.requests.live + st.calls.live + st.hops.live, 0u);
  // Recycling, not growth: 30 requests never need more than one chunk.
  EXPECT_EQ(st.requests.capacity, 256u);
  EXPECT_EQ(st.requests.acquires, 30u);
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

// --------------------------------------------------------------------------
// Handle-generation safety: orphaned attempts and their late replies

TEST(PooledLifecycle, OrphanLateReplyIsDiscardedByGenerationCheck) {
  // Two-hop chain; the call into the worker times out long before the
  // worker's 20 ms burst finishes, the retry (against now-warm recycled
  // slots) succeeds, and the orphan's late reply must hit a stale CallState
  // handle and vanish — not alias a recycled record.
  Application::Builder b;
  b.SetName("orphan")
      .SetServiceTimeDist(microsvc::ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  const ServiceId gw = b.AddService(Svc("gw", 8, 4));
  const ServiceId w = b.AddService(Svc("w", 8, 4));
  auto t = Type("t", {{gw, Us(100), 0}, {w, Ms(20), 0}});
  microsvc::RpcPolicy p;
  p.timeout = Ms(5);
  p.max_retries = 3;
  p.backoff_base = Ms(1);
  p.jitter = 0;  // deterministic backoff
  t.hops[1].rpc = p;
  b.AddRequestType(t);
  const Application app = std::move(b).Build();

  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kLegit, false, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunAll();  // drains the orphan bursts too

  // Every attempt times out (the burst takes 20 ms against a 5 ms timeout).
  EXPECT_EQ(rec.outcome, Outcome::kTimeout);
  EXPECT_EQ(rec.retries, 3);
  // 4 attempts ran to completion downstream as orphans.
  EXPECT_EQ(cluster.service(w).completed_bursts(), 4);
  const auto st = cluster.lifecycle_stats();
  EXPECT_EQ(st.requests.live + st.calls.live + st.hops.live, 0u);
  EXPECT_EQ(st.calls.acquires, 5u);  // hop-0 call + 4 worker attempts
}

TEST(PooledLifecycle, PoolsRecycleAcrossSequentialRequests) {
  const Application app = grunt::testing::SingleChainApp();
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  for (int i = 0; i < 1000; ++i) {
    sim.At(Ms(20) * i, [&cluster] {
      cluster.Submit(0, RequestClass::kLegit, false, 1);
    });
  }
  sim.RunAll();
  EXPECT_EQ(cluster.ok_count(), 1000u);
  const auto st = cluster.lifecycle_stats();
  // Sequential traffic: one request in flight at a time, so the pools never
  // grow past their first chunk no matter how many requests pass through.
  EXPECT_EQ(st.requests.high_water, 1u);
  EXPECT_LE(st.calls.high_water, 4u);
  EXPECT_EQ(st.requests.capacity, 256u);
  EXPECT_EQ(st.requests.acquires, 1000u);
  EXPECT_EQ(st.requests.live + st.calls.live + st.hops.live, 0u);
}

}  // namespace
}  // namespace grunt
