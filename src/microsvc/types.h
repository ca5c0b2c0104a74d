#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/time_types.h"

namespace grunt::microsvc {

using ServiceId = std::int32_t;
using RequestTypeId = std::int32_t;

inline constexpr ServiceId kInvalidService = -1;
inline constexpr RequestTypeId kInvalidRequestType = -1;

/// Who issued a request. The simulator treats all classes identically (attack
/// requests ARE legitimate HTTP requests — that is the point of the paper);
/// the class is only used for metrics attribution and IDS bookkeeping.
enum class RequestClass : std::uint8_t {
  kLegit = 0,   ///< background users
  kAttack = 1,  ///< Grunt / baseline attack bursts
  kProbe = 2,   ///< profiler / commander measurement probes
};

const char* ToString(RequestClass c);

/// Terminal outcome of a request (or of one RPC attempt inside its chain),
/// as the issuing client observes it. Every submitted request reaches
/// exactly one terminal outcome, even when timed out, load-shed, or caught
/// mid-flight by a replica crash.
enum class Outcome : std::uint8_t {
  kOk = 0,                ///< reply received
  kTimeout = 1,           ///< per-attempt RPC timeout fired, retries exhausted
  kRejected = 2,          ///< load-shed: bounded queue full or breaker open
  kDeadlineExceeded = 3,  ///< end-to-end deadline budget ran out
  kFailed = 4,            ///< connection reset: replica crashed mid-burst
};

inline constexpr std::size_t kOutcomeCount = 5;

const char* ToString(Outcome o);

/// Client-side policy of one RPC edge (the call INTO a hop): how long the
/// caller waits, and how it retries. Mirrors Thrift/gRPC client options.
/// The all-defaults policy is "wait forever, never retry" — identical to the
/// pre-fault-tolerance simulator, so existing figures reproduce unchanged.
struct RpcPolicy {
  /// Per-attempt timeout measured from the instant the caller issues the
  /// call (covers network, queueing, execution, downstream subtree, reply).
  /// 0 = wait forever.
  SimDuration timeout = 0;
  /// Retries after the first attempt. Retries re-inject the call as a fresh
  /// arrival (the abandoned attempt keeps executing as orphan work) — this
  /// is what makes retry storms amplify the Grunt attack.
  std::int32_t max_retries = 0;
  /// Exponential backoff before attempt k (1-based retry): base * mult^(k-1).
  SimDuration backoff_base = Ms(10);
  double backoff_multiplier = 2.0;
  /// Jitter fraction j: each backoff is scaled by 1 + U(-j, +j). 0 = exact.
  double jitter = 0.0;
  /// No-load RTT prior for this edge, seeding the caller's adaptive
  /// concurrency limiter (ServiceSpec::adaptive_limit). 0 = learn the floor
  /// from the fastest observed reply instead.
  SimDuration nominal_rtt = 0;

  friend bool operator==(const RpcPolicy&, const RpcPolicy&) = default;
};

/// Caller-side adaptive concurrency limiter, one instance per (service →
/// downstream) RPC edge: an AIMD limit on in-flight calls driven by observed
/// RTT against the edge's no-load RTT (gradient-style, after Netflix
/// concurrency-limits). When a millibottleneck forms downstream, RTTs grow
/// past `rtt_tolerance` × floor and the limit decays multiplicatively,
/// clamping how many of the caller's threads can pile onto the slow edge —
/// the execution-dependency coupling the Grunt attack exploits.
struct AdaptiveLimitSpec {
  bool enabled = false;
  std::int32_t min_limit = 2;   ///< decay floor (keeps probing the edge)
  std::int32_t max_limit = 64;  ///< growth ceiling, also the initial limit
  /// A sample is "congested" when rtt > rtt_tolerance * no-load floor.
  double rtt_tolerance = 2.0;
  /// Multiplicative decrease on a congested or failed sample; good samples
  /// add 1/limit (congestion-avoidance additive increase).
  double decrease_factor = 0.9;

  friend bool operator==(const AdaptiveLimitSpec&,
                         const AdaptiveLimitSpec&) = default;
};

/// Callee-side deadline-aware shedding: on arrival — before the call consumes
/// a thread slot — refuse the request when its remaining end-to-end budget
/// cannot cover the expected residual path cost (remaining CPU demand plus
/// remaining network messages). `depth_weight` inflates the required slack
/// with hop depth, so when budgets tighten the deepest pending work sheds
/// first and partially-executed subtrees drain instead of piling up.
struct DeadlineShedSpec {
  bool enabled = false;
  /// Required slack as a multiple of the expected residual cost (demands are
  /// means, so 1.0 is an expected-value feasibility check).
  double margin = 1.0;
  /// Extra margin per hop of depth: required = margin * (1 + depth_weight*h).
  double depth_weight = 0.0;

  friend bool operator==(const DeadlineShedSpec&,
                         const DeadlineShedSpec&) = default;
};

/// One hop of a request type's critical path (Fig 2(c)): the service visited,
/// the CPU demand before calling the next hop, and the CPU demand after the
/// downstream reply returns (before replying upstream).
struct Hop {
  ServiceId service = kInvalidService;
  SimDuration cpu_demand = 0;   ///< mean pre-call CPU burst
  SimDuration post_demand = 0;  ///< mean post-reply CPU burst
  /// Policy governing calls INTO this hop (for hop 0, the external client's
  /// own timeout/retry). Unset = the application-wide default policy.
  /// (The explicit `{}` lets paths be written {service, cpu, post}
  /// without a -Wmissing-field-initializers warning.)
  std::optional<RpcPolicy> rpc{};

  friend bool operator==(const Hop&, const Hop&) = default;
};

/// Static description of a supported user request (== execution path ==
/// critical path). Each public URL of the target maps to one of these.
struct RequestTypeSpec {
  std::string name;
  std::vector<Hop> hops;  ///< hop 0 is the entry (gateway-facing) service
  /// Demand multiplier applied when a request is flagged "heavy" (attackers
  /// pick the heaviest legal variant of an endpoint, e.g. max-size media).
  double heavy_multiplier = 1.0;
  std::int64_t request_bytes = 600;     ///< HTTP request size at the gateway
  std::int64_t response_bytes = 4000;   ///< HTTP response size at the gateway
  /// Static/cached endpoints are served by the gateway/CDN and never reach
  /// the backend; the profiler excludes them (Sec IV-C).
  bool is_static = false;
  /// End-to-end deadline for the whole request, propagated down the call
  /// chain: every downstream attempt's timeout is truncated to the remaining
  /// budget. 0 = none.
  SimDuration deadline = 0;

  friend bool operator==(const RequestTypeSpec&,
                         const RequestTypeSpec&) = default;
};

/// Static description of one microservice.
struct ServiceSpec {
  std::string name;
  /// Thread-pool size per replica == queue slots per replica (Sec VI: "the
  /// queue size of each microservice represents the number of server
  /// threads").
  std::int32_t threads_per_replica = 32;
  std::int32_t cores_per_replica = 1;  ///< 1 vCPU basic unit (Sec V-B)
  std::int32_t initial_replicas = 1;
  std::int32_t max_replicas = 8;
  /// Admission control (load shedding): arrivals beyond
  /// `max_queue_per_replica * replicas` waiting calls are rejected
  /// immediately instead of queueing. 0 = unbounded queue (seed behaviour).
  std::int32_t max_queue_per_replica = 0;
  /// Per-caller circuit breaker: after this many consecutive failed calls
  /// from one caller, further calls from that caller fast-fail (kRejected)
  /// for `breaker_cooldown`. 0 = disabled.
  std::int32_t breaker_threshold = 0;
  SimDuration breaker_cooldown = Ms(500);
  /// Bulkhead: at most `bulkhead_per_downstream * replicas` of this service's
  /// calls may be in flight into any single downstream at once; excess calls
  /// fast-fail (kRejected) on the caller side. Partitioning the thread pool
  /// per dependency means one slow callee can no longer occupy every slot.
  /// 0 = disabled (seed behaviour).
  std::int32_t bulkhead_per_downstream = 0;
  /// Adaptive per-downstream concurrency limiter (caller side), off by
  /// default.
  AdaptiveLimitSpec adaptive_limit;
  /// Deadline-aware shedding at this service's admission (callee side), off
  /// by default.
  DeadlineShedSpec deadline_shed;

  friend bool operator==(const ServiceSpec&, const ServiceSpec&) = default;
};

/// How per-request CPU demands are drawn around their mean.
enum class ServiceTimeDist : std::uint8_t {
  kDeterministic,  ///< exactly the mean (used for model-validation tests)
  kExponential,    ///< exponential with the given mean (default)
};

}  // namespace grunt::microsvc
