#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cloud/monitor.h"
#include "microsvc/cluster.h"
#include "sim/ring_buffer.h"

namespace grunt::cloud {

/// Rule families of the gateway IDS/IPS in the paper's evaluation: a
/// Snort-style behavioral rule (inter-request interval), an AWS-Shield-style
/// per-IP rate window, and a resource-saturation rule fed by the coarse
/// monitor. Content/protocol rule families cannot fire on Grunt traffic
/// (structurally legitimate HTTP), which `content_checks_passed` records.
enum class AlertRule : std::uint8_t {
  kInterRequestInterval,  ///< two requests from one session < min interval
  kRateLimit,             ///< per-IP requests in window over limit
  kResourceSaturation,    ///< sustained saturation at monitor granularity
  kServiceDegradation,    ///< long RT observed (no client attribution)
};
inline constexpr std::size_t kAlertRuleCount = 4;

const char* ToString(AlertRule rule);

/// Alerts raised so far, counted per rule. Every reader only counts alerts,
/// so the IDS keeps these counters and no per-alert record.
class AlertCensus {
 public:
  std::size_t count(AlertRule rule) const {
    return by_rule_[static_cast<std::size_t>(rule)];
  }
  /// All alerts, whatever the rule.
  std::size_t size() const {
    std::size_t n = 0;
    for (const std::size_t c : by_rule_) n += c;
    return n;
  }
  bool empty() const { return size() == 0; }

 private:
  friend class Ids;
  std::array<std::size_t, kAlertRuleCount> by_rule_{};
};

/// Gateway intrusion detection/prevention, fed by every submitted request.
class Ids {
 public:
  struct Config {
    /// Sessions sending two consecutive requests closer than this are
    /// flagged (paper: 95% CI lower bound of legit inter-request times,
    /// rounded down to 3 s).
    SimDuration min_inter_request = Sec(3);
    /// Per-IP request budget per rate window (AWS Shield-style).
    std::int64_t rate_limit = 100;
    SimDuration rate_window = Sec(300);
    /// Resource rule: utilization >= this for >= consecutive samples.
    double saturation_threshold = 0.95;
    std::int32_t saturation_samples = 3;
    /// Degradation rule: windowed mean legit RT above this (ms).
    double degradation_rt_ms = 1000.0;
    /// Only sessions with at least this many requests are judged by the
    /// inter-request rule (one-shot clients are indistinguishable from new
    /// visitors).
    std::int32_t min_session_requests = 2;

    // Spec-visible (scenario files serialize this struct).
    friend bool operator==(const Config&, const Config&) = default;
  };

  /// `monitor`/`rt_monitor` may be null; the corresponding rules are then
  /// disabled.
  Ids(microsvc::Cluster& cluster, const ResourceMonitor* monitor,
      const ResponseTimeMonitor* rt_monitor, Config cfg);

  void Start();
  void Stop();

  const AlertCensus& alerts() const { return alerts_; }
  std::size_t CountAlerts(AlertRule rule) const { return alerts_.count(rule); }

  /// Alerts whose client attribution points at an actual attack/probe
  /// session — i.e. detections that would let an operator block the attack.
  std::size_t attributed_attack_alerts() const {
    return attributed_attack_alerts_;
  }

  /// True: no content-based or protocol-based rule can fire on this traffic
  /// (requests are well-formed by construction). Recorded for reporting.
  bool content_checks_passed() const { return true; }

 private:
  void OnSubmit(microsvc::RequestTypeId type, microsvc::RequestClass cls,
                std::uint64_t client_id, SimTime at);
  void Evaluate();
  void Raise(AlertRule rule, bool attack_attributed);

  microsvc::Cluster& cluster_;
  const ResourceMonitor* monitor_;
  const ResponseTimeMonitor* rt_monitor_;
  Config cfg_;
  sim::EventHandle timer_;
  bool running_ = false;

  struct SessionState {
    SimTime last_request = 0;
    std::int64_t total_requests = 0;
    bool is_attack = false;  ///< ground-truth tag, only for scoring
    sim::RingBuffer<SimTime> window;  ///< request times within rate window
  };
  std::unordered_map<std::uint64_t, SessionState> sessions_;
  std::vector<std::size_t> next_util_sample_;
  std::vector<std::int32_t> saturated_ticks_;
  std::size_t next_rt_sample_ = 0;
  AlertCensus alerts_;
  std::size_t attributed_attack_alerts_ = 0;
};

}  // namespace grunt::cloud
