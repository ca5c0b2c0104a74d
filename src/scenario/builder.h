#pragma once

// SpecBuilder: the one shared topology-construction utility behind every
// built-in app. Before the scenario layer, socialnetwork.cpp,
// hotelreservation.cpp and mubench.cpp each carried their own copy-pasted
// `svc`/`type` lambdas (service sizing + admission stamping, fan-in stage
// construction, static endpoints); this class is that logic, once, and
// DeploymentParams is the one declaration of the deployment knobs.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/spec.h"

namespace grunt::scenario {

/// Services with at least this many threads per replica are gateways:
/// effectively un-overflowable slot pools that never load-shed (the
/// exploited queues are always the small backend pools behind them).
inline constexpr std::int32_t kGatewayThreads = 1024;

/// Scales a mean demand in milliseconds by a cloud capacity factor (faster
/// cloud → shorter demand), mirroring the original per-app `D()` helpers.
SimDuration ScaledDemand(double ms, double capacity_scale);

/// The deployment knobs every built-in scenario takes (SocialNetwork,
/// HotelReservation, the µBench generator). Fields a topology does not use
/// are ignored — e.g. queue_scale only affects SocialNetwork, and the µBench
/// generator sizes its own services. The defaults reproduce the paper's
/// configuration exactly: no timeouts, no retries, unbounded queues, no
/// breakers, no degradation layer. Every field has a default member
/// initializer, so a designated initializer may name any subset without
/// tripping -Wmissing-field-initializers.
struct DeploymentParams {
  /// Scales the initial replica count of backend services (the paper's
  /// higher-workload settings run against proportionally larger clusters).
  std::int32_t replica_scale = 1;
  /// Relative capacity of the hosting cloud (EC2 = 1.0; models the slightly
  /// different vCPU throughput across providers).
  double capacity_scale = 1.0;
  microsvc::ServiceTimeDist dist = microsvc::ServiceTimeDist::kExponential;
  /// Multiplies every backend service's thread-pool (queue) size; the
  /// Sec VI "Impact of microservice's queue size" knob. 1.0 = reference.
  double queue_scale = 1.0;
  /// Applied to every RPC edge when set (per-call CallSpec::rpc overrides
  /// win).
  std::optional<microsvc::RpcPolicy> default_rpc{};
  /// Policy for the gateway->backend edge only (the call INTO the first
  /// backend hop of every dynamic endpoint). Unset = default_rpc. The
  /// defended preset retries here and nowhere else: the gateway pool is too
  /// large to pin, so it can afford to wait out a burst, while interior
  /// edges fail fast and free their caller's slot immediately.
  std::optional<microsvc::RpcPolicy> edge_rpc{};
  /// Policy for hop 0 — how long the external client waits before
  /// abandoning a request. Unset = default_rpc. The defended preset pins
  /// this to the endpoint deadline so the user outlasts the gateway's
  /// retry span instead of hanging up mid-recovery.
  std::optional<microsvc::RpcPolicy> client_rpc{};
  /// Bounds every backend service's arrival queue at
  /// `max_queue_per_replica * replicas` waiters (load shedding).
  /// 0 = unbounded.
  std::int32_t max_queue_per_replica = 0;
  /// Per-caller circuit breaker on every backend service: this many
  /// consecutive failures from one caller open it for `breaker_cooldown`.
  /// 0 = disabled.
  std::int32_t breaker_threshold = 0;
  SimDuration breaker_cooldown = Ms(500);
  /// Graceful-degradation deployment (the anti-Grunt countermeasures),
  /// stamped onto backend services like the admission knobs above; all off
  /// by default. `bulkhead_per_downstream` is a per-downstream quota
  /// (× replicas).
  std::int32_t bulkhead_per_downstream = 0;
  microsvc::AdaptiveLimitSpec adaptive_limit{};
  microsvc::DeadlineShedSpec deadline_shed{};
  /// End-to-end deadline stamped onto every dynamic endpoint (what
  /// deadline_shed budgets against). 0 = none.
  SimDuration endpoint_deadline = 0;
  /// Closed-loop population; 0 keeps the scenario's reference default
  /// (SocialNetwork 7000, HotelReservation 5000, µBench 4000).
  std::int32_t users = 0;
};

class SpecBuilder {
 public:
  explicit SpecBuilder(std::string name);

  SpecBuilder& SetNetLatency(SimDuration lat);
  /// Applies a deployment: its service-time distribution and default RPC
  /// policy go on the topology; admission control (load shedding,
  /// per-caller breakers) and the degradation layer (bulkhead, adaptive
  /// limiter, deadline shedding) are stamped onto every subsequently added
  /// backend service — gateways (threads >= kGatewayThreads) never shed —
  /// and the end-to-end deadline onto every subsequently added dynamic
  /// endpoint (static endpoints never reach the backend).
  SpecBuilder& SetDeployment(const DeploymentParams& deployment);

  /// Adds a service; `max_replicas` 0 means `replicas * 8` (the app idiom).
  /// Returns the service name (specs reference services by name).
  const std::string& AddService(std::string name, std::int32_t threads,
                                std::int32_t cores, std::int32_t replicas,
                                std::int32_t max_replicas = 0);

  /// Adds a sequential-chain endpoint: each call becomes its own stage.
  void AddChainEndpoint(std::string name, std::vector<CallSpec> calls,
                        double heavy_multiplier, std::int64_t request_bytes,
                        std::int64_t response_bytes);

  /// Adds an endpoint with explicit (possibly fan-out) stages.
  void AddStagedEndpoint(std::string name, std::vector<StageSpec> stages,
                         double heavy_multiplier, std::int64_t request_bytes,
                         std::int64_t response_bytes);

  /// Adds a static edge-served endpoint (no backend stages).
  void AddStaticEndpoint(std::string name, std::int64_t request_bytes,
                         std::int64_t response_bytes);

  std::size_t service_count() const { return spec_.services.size(); }
  std::size_t endpoint_count() const { return spec_.endpoints.size(); }

  TopologySpec Build() &&;

 private:
  TopologySpec spec_;
  DeploymentParams deployment_;
};

}  // namespace grunt::scenario
