#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "microsvc/cluster.h"
#include "util/stats.h"
#include "util/timeseries.h"

namespace grunt::cloud {

/// Periodically samples per-service CPU utilization and queue length plus
/// gateway throughput — the role CloudWatch / Azure Monitor / docker-stats
/// play in the paper. The sampling granularity is the whole story of the
/// stealthiness argument: 1 s samplers cannot see <500 ms millibottlenecks,
/// a 100 ms sampler can (Fig 13 vs Fig 14).
class ResourceMonitor {
 public:
  struct Config {
    SimDuration granularity = Sec(1);
    std::string name = "cloudwatch";

    // Spec-visible (scenario files serialize the granularity).
    friend bool operator==(const Config&, const Config&) = default;
  };

  ResourceMonitor(microsvc::Cluster& cluster, Config cfg);

  void Start();
  void Stop();

  SimDuration granularity() const { return cfg_.granularity; }
  const std::string& name() const { return cfg_.name; }

  /// Utilization in [0,1] per sample window.
  SeriesView cpu_util(microsvc::ServiceId s) const {
    return ServiceColumn(kCpuUtil, s);
  }
  /// Instantaneous queue length (in-service + waiting) at sample times.
  SeriesView queue_len(microsvc::ServiceId s) const {
    return ServiceColumn(kQueueLen, s);
  }
  /// Gateway traffic in MB/s per sample window.
  SeriesView gateway_mbps() const {
    return samples_.column(samples_.columns() - 1);
  }
  /// Replica count at sample times.
  SeriesView replicas(microsvc::ServiceId s) const {
    return ServiceColumn(kReplicas, s);
  }

  /// Service with the highest mean utilization over [from, to).
  microsvc::ServiceId HottestService(SimTime from, SimTime to) const;

 private:
  /// Column layout of samples_: kPerService columns per service (service s
  /// owns columns [kPerService * s, kPerService * (s + 1))), then the
  /// gateway column.
  enum ServiceColumnKind : std::size_t {
    kCpuUtil,
    kQueueLen,
    kReplicas,
    kPerService
  };
  SeriesView ServiceColumn(ServiceColumnKind kind,
                           microsvc::ServiceId s) const;
  void Sample();

  microsvc::Cluster& cluster_;
  Config cfg_;
  sim::EventHandle timer_;
  bool running_ = false;
  /// Interned handles into the cluster's MetricsRegistry: the monitor reads
  /// the bus-fed gauges the Cluster registered, never Service internals.
  struct ServiceGauges {
    telemetry::MetricsRegistry::Id busy_core_us;
    telemetry::MetricsRegistry::Id queue_len;
    telemetry::MetricsRegistry::Id replicas;
    telemetry::MetricsRegistry::Id cores;
  };
  std::vector<ServiceGauges> gauges_;
  telemetry::MetricsRegistry::Id gateway_bytes_g_;
  std::vector<double> prev_busy_;
  double prev_gateway_bytes_ = 0;
  /// Every series on one clock: one row per tick.
  SeriesTable samples_;
  std::vector<double> row_;  ///< the row Sample() fills, reused every tick
};

/// Every successful legitimate completion as an (end time, RT) row, in
/// end-time order, at 8 B a row (DESIGN.md §4.11). Rows live in fixed chunks
/// of kChunkRows: each chunk stores a SimTime base and two uint32_t columns,
/// the end time as an offset from the base and the RT in integer µs. A new
/// chunk starts when the last one is full or when an end no longer fits 32
/// bits above its base. Chunks never move once allocated, so appending never
/// copies and there is no growth slack beyond the last chunk.
class LegitRtStore {
 public:
  static constexpr std::size_t kChunkRows = 4096;
  /// Largest duration a uint32_t column holds, 2^32 - 1 µs (~71.6 min):
  /// it bounds a row's RT and its end's offset from the chunk base.
  static constexpr SimDuration kMaxSpan =
      std::numeric_limits<std::uint32_t>::max();

  /// Appends one row. Preconditions (the caller checks them): `end` is not
  /// before the last row's end, and 0 <= rt <= kMaxSpan.
  void Append(SimTime end, SimDuration rt) {
    if (chunks_.empty() || chunks_.back()->rows == kChunkRows ||
        end - chunks_.back()->base > kMaxSpan) {
      NewChunk(end);
    }
    Chunk& c = *chunks_.back();
    c.end_offset[c.rows] = static_cast<std::uint32_t>(end - c.base);
    c.rt_us[c.rows] = static_cast<std::uint32_t>(rt);
    ++c.rows;
  }

  bool empty() const { return chunks_.empty(); }
  std::size_t chunk_count() const { return chunks_.size(); }
  /// End time of the last row; meaningless when empty.
  SimTime last_end() const {
    const Chunk& c = *chunks_.back();
    return c.base + c.end_offset[c.rows - 1];
  }

  /// RTs (ms, `ToMillis` of the stored µs) of the rows whose end lies in
  /// [from, to), in append order.
  Samples Window(SimTime from, SimTime to) const;

 private:
  struct Chunk {
    SimTime base = 0;  ///< end time of the chunk's first row
    std::size_t rows = 0;
    std::array<std::uint32_t, kChunkRows> end_offset;  ///< end - base
    std::array<std::uint32_t, kChunkRows> rt_us;
  };
  /// (chunk, row) of the first row whose end is >= t; (chunk_count(), 0)
  /// when there is none.
  std::pair<std::size_t, std::size_t> LowerBound(SimTime t) const;
  void NewChunk(SimTime base);

  std::vector<std::unique_ptr<Chunk>> chunks_;
};

/// Windows end-to-end response times of completed requests into a mean /
/// count series per granularity tick. Separates legitimate traffic
/// from attack/probe traffic so benches can report "RT perceived by normal
/// users" exactly as the paper does.
///
/// Only successful (Outcome::kOk) completions enter the RT windows — a
/// timed-out request's "latency" is just its timeout, and mixing it in
/// would make aggressive timeouts look like a latency win. Failures are
/// accounted separately via error_rate() and goodput().
class ResponseTimeMonitor {
 public:
  struct Config {
    SimDuration granularity = Sec(1);
    std::string name = "rt";
  };

  ResponseTimeMonitor(microsvc::Cluster& cluster, Config cfg);

  void Start();
  void Stop();

  /// Mean RT (ms) of legitimate requests completed per window (0 if none).
  SeriesView legit_mean_ms() const { return series_.column(kLegitMeanMs); }
  /// Successful legitimate completions per second per window.
  SeriesView goodput() const { return series_.column(kGoodput); }
  /// Fraction of legitimate completions per window that failed (timeout,
  /// rejection, deadline, crash); 0 when the window is empty.
  SeriesView error_rate() const { return series_.column(kErrorRate); }

  /// Cumulative legitimate completions by terminal outcome since Start().
  std::uint64_t legit_outcome_count(microsvc::Outcome o) const {
    return legit_outcomes_[static_cast<std::size_t>(o)];
  }

  /// All legitimate (successful) RTs (ms) observed in [from, to) by
  /// completion time. Each is kept as an 8 B LegitRtStore row; a legit RT
  /// over LegitRtStore::kMaxSpan throws std::overflow_error when it
  /// completes.
  Samples LegitWindow(SimTime from, SimTime to) const;

 private:
  enum Column : std::size_t { kLegitMeanMs, kGoodput, kErrorRate, kColumns };
  void Flush();

  microsvc::Cluster& cluster_;
  Config cfg_;
  sim::EventHandle timer_;
  bool running_ = false;
  telemetry::SubscriptionId completion_sub_ = 0;
  /// Cumulative legit-RT histogram in the cluster's MetricsRegistry
  /// ("<name>.legit_ms"): every successful legit completion is Observe()d,
  /// so Snapshot() exports bucketed RTs with p95/p99 alongside the gauges.
  telemetry::MetricsRegistry::Id rt_hist_ =
      telemetry::MetricsRegistry::kInvalidId;
  /// Successful legit completions in the current window and the sum of
  /// their RTs (ms), added in completion order.
  std::uint64_t window_ok_ = 0;
  double window_sum_ms_ = 0;
  std::uint64_t window_errors_ = 0;  ///< failed legit completions in window
  std::array<std::uint64_t, microsvc::kOutcomeCount> legit_outcomes_{};
  LegitRtStore legit_all_;  ///< every kOk legit completion
  SeriesTable series_{kColumns};  ///< one row per window, on one clock
};

}  // namespace grunt::cloud
