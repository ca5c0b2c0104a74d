#pragma once

// Shared miniature topologies used across the test suite. All are built with
// deterministic service times unless a test opts into exponential draws, so
// expected latencies can be asserted exactly.

#include <cstddef>
#include <vector>

#include "microsvc/application.h"
#include "microsvc/cluster.h"
#include "sim/simulation.h"

namespace grunt::testing {

using microsvc::Application;
using microsvc::Hop;
using microsvc::RequestTypeSpec;
using microsvc::ServiceId;
using microsvc::ServiceSpec;

inline ServiceSpec Svc(std::string name, std::int32_t threads,
                       std::int32_t cores) {
  ServiceSpec s;
  s.name = std::move(name);
  s.threads_per_replica = threads;
  s.cores_per_replica = cores;
  s.initial_replicas = 1;
  s.max_replicas = 8;
  return s;
}

inline RequestTypeSpec Type(std::string name, std::vector<Hop> hops,
                            double heavy = 1.6) {
  RequestTypeSpec t;
  t.name = std::move(name);
  t.hops = std::move(hops);
  t.heavy_multiplier = heavy;
  return t;
}

/// Two paths with distinct worker bottlenecks behind one small shared
/// upstream service (parallel dependency), plus a well-provisioned gateway.
/// Type ids: 0 = "a", 1 = "b".
inline Application TwoPathParallelApp(
    microsvc::ServiceTimeDist dist = microsvc::ServiceTimeDist::kDeterministic,
    std::int32_t um_threads = 12) {
  Application::Builder b;
  b.SetName("two-path-parallel").SetServiceTimeDist(dist).SetNetLatency(
      Us(200));
  const ServiceId gw = b.AddService(Svc("gw", 2048, 8));
  const ServiceId um = b.AddService(Svc("um", um_threads, 4));
  const ServiceId wa = b.AddService(Svc("worker-a", 64, 2));
  const ServiceId wb = b.AddService(Svc("worker-b", 64, 2));
  const ServiceId leaf = b.AddService(Svc("leaf", 128, 2));
  b.AddRequestType(Type("a", {{gw, Us(200), 0},
                              {um, Us(1000), Us(400)},
                              {wa, Us(9000), Us(500)},
                              {leaf, Us(400), 0}}));
  b.AddRequestType(Type("b", {{gw, Us(200), 0},
                              {um, Us(1000), Us(400)},
                              {wb, Us(9000), Us(500)},
                              {leaf, Us(400), 0}}));
  return std::move(b).Build();
}

/// Sequential dependency: path "up" bottlenecks on the shared upstream
/// service itself; path "down" bottlenecks on a worker below it.
/// Type ids: 0 = "up", 1 = "down".
inline Application SequentialApp(
    microsvc::ServiceTimeDist dist =
        microsvc::ServiceTimeDist::kDeterministic) {
  Application::Builder b;
  b.SetName("sequential").SetServiceTimeDist(dist).SetNetLatency(Us(200));
  const ServiceId gw = b.AddService(Svc("gw", 2048, 8));
  const ServiceId um = b.AddService(Svc("um", 12, 4));
  const ServiceId w = b.AddService(Svc("worker", 64, 2));
  const ServiceId leaf = b.AddService(Svc("leaf", 128, 2));
  b.AddRequestType(Type("up", {{gw, Us(200), 0},
                               {um, Us(30000), Us(1000)},
                               {leaf, Us(400), 0}}));
  b.AddRequestType(Type("down", {{gw, Us(200), 0},
                                 {um, Us(1000), Us(400)},
                                 {w, Us(9000), Us(500)},
                                 {leaf, Us(400), 0}}));
  return std::move(b).Build();
}

/// Two fully independent paths (share only the huge gateway): no dependency.
/// Type ids: 0 = "x", 1 = "y".
inline Application DisjointApp(
    microsvc::ServiceTimeDist dist =
        microsvc::ServiceTimeDist::kDeterministic) {
  Application::Builder b;
  b.SetName("disjoint").SetServiceTimeDist(dist).SetNetLatency(Us(200));
  const ServiceId gw = b.AddService(Svc("gw", 2048, 8));
  const ServiceId wx = b.AddService(Svc("worker-x", 64, 2));
  const ServiceId wy = b.AddService(Svc("worker-y", 64, 2));
  const ServiceId lx = b.AddService(Svc("leaf-x", 128, 2));
  const ServiceId ly = b.AddService(Svc("leaf-y", 128, 2));
  b.AddRequestType(Type("x", {{gw, Us(200), 0},
                              {wx, Us(9000), Us(500)},
                              {lx, Us(400), 0}}));
  b.AddRequestType(Type("y", {{gw, Us(200), 0},
                              {wy, Us(9000), Us(500)},
                              {ly, Us(400), 0}}));
  return std::move(b).Build();
}

/// Single three-hop chain for request-lifecycle arithmetic.
/// Type id 0 = "chain". Demands: 1ms, 5ms(+1ms post), 2ms; net 200us/msg.
inline Application SingleChainApp(
    microsvc::ServiceTimeDist dist =
        microsvc::ServiceTimeDist::kDeterministic) {
  Application::Builder b;
  b.SetName("chain").SetServiceTimeDist(dist).SetNetLatency(Us(200));
  const ServiceId s0 = b.AddService(Svc("s0", 8, 2));
  const ServiceId s1 = b.AddService(Svc("s1", 8, 2));
  const ServiceId s2 = b.AddService(Svc("s2", 8, 2));
  b.AddRequestType(Type("chain", {{s0, Us(1000), 0},
                                  {s1, Us(5000), Us(1000)},
                                  {s2, Us(2000), 0}},
                        2.0));
  return std::move(b).Build();
}

/// Every CompletionRecord the cluster publishes, in completion order. The
/// cluster keeps no per-request record itself; tests that inspect the
/// completion stream subscribe through this recorder. Declare it after the
/// cluster it watches (it unsubscribes on destruction) and before the first
/// Submit.
class CompletionLog {
 public:
  explicit CompletionLog(microsvc::Cluster& cluster) : cluster_(cluster) {
    sub_ = cluster_.telemetry().completion().Subscribe(
        [this](const microsvc::CompletionRecord& r) { records_.push_back(r); });
  }
  ~CompletionLog() { cluster_.telemetry().completion().Unsubscribe(sub_); }
  CompletionLog(const CompletionLog&) = delete;
  CompletionLog& operator=(const CompletionLog&) = delete;

  std::size_t size() const { return records_.size(); }
  const microsvc::CompletionRecord& operator[](std::size_t i) const {
    return records_[i];
  }
  auto begin() const { return records_.begin(); }
  auto end() const { return records_.end(); }

 private:
  microsvc::Cluster& cluster_;
  telemetry::SubscriptionId sub_ = 0;
  std::vector<microsvc::CompletionRecord> records_;
};

}  // namespace grunt::testing
