#include "cloud/monitor.h"

#include <algorithm>
#include <stdexcept>

namespace grunt::cloud {

ResourceMonitor::ResourceMonitor(microsvc::Cluster& cluster, Config cfg)
    : cluster_(cluster),
      cfg_(std::move(cfg)),
      samples_(kPerService * cluster.service_count() + 1),
      row_(samples_.columns()) {
  const std::size_t n = cluster_.service_count();
  prev_busy_.assign(n, 0);
  // Resolve the bus-fed gauges once; the Cluster registered them at
  // construction. Sampling reads exclusively through these handles.
  auto& reg = cluster_.telemetry().metrics();
  gauges_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string prefix = "svc." + std::to_string(i) + ".";
    gauges_.push_back(ServiceGauges{
        reg.Gauge(prefix + "busy_core_us"),
        reg.Gauge(prefix + "queue_len"),
        reg.Gauge(prefix + "replicas"),
        reg.Gauge(prefix + "cores"),
    });
  }
  gateway_bytes_g_ = reg.Gauge("gateway.bytes");
}

void ResourceMonitor::Start() {
  if (running_) return;
  running_ = true;
  // Initialize baselines so the first window is measured, not cumulative.
  const auto& reg = cluster_.telemetry().metrics();
  for (std::size_t i = 0; i < cluster_.service_count(); ++i) {
    prev_busy_[i] = reg.ReadGauge(gauges_[i].busy_core_us);
  }
  prev_gateway_bytes_ = reg.ReadGauge(gateway_bytes_g_);
  timer_ = cluster_.simulation().Every(cfg_.granularity, [this] { Sample(); });
}

void ResourceMonitor::Stop() {
  running_ = false;
  timer_.Cancel();
}

void ResourceMonitor::Sample() {
  // Every value read here is a bus-fed gauge. The arithmetic is identical
  // to the old direct polling: the gauges expose exact integer counts, and
  // doubles subtract integers below 2^53 exactly.
  const SimTime now = cluster_.simulation().Now();
  const auto& reg = cluster_.telemetry().metrics();
  for (std::size_t i = 0; i < cluster_.service_count(); ++i) {
    const ServiceGauges& g = gauges_[i];
    const double busy = reg.ReadGauge(g.busy_core_us);
    const double window_core_us =
        reg.ReadGauge(g.cores) * static_cast<double>(cfg_.granularity);
    const double util =
        window_core_us <= 0
            ? 0.0
            : std::clamp((busy - prev_busy_[i]) / window_core_us, 0.0, 1.0);
    prev_busy_[i] = busy;
    double* cols = &row_[kPerService * i];
    cols[kCpuUtil] = util;
    cols[kQueueLen] = reg.ReadGauge(g.queue_len);
    cols[kReplicas] = reg.ReadGauge(g.replicas);
  }
  const double bytes = reg.ReadGauge(gateway_bytes_g_);
  row_.back() =
      (bytes - prev_gateway_bytes_) / (1e6 * ToSeconds(cfg_.granularity));
  prev_gateway_bytes_ = bytes;
  samples_.AddRow(now, row_);
}

SeriesView ResourceMonitor::ServiceColumn(ServiceColumnKind kind,
                                          microsvc::ServiceId s) const {
  const auto i = static_cast<std::size_t>(s);
  if (i >= gauges_.size()) {
    throw std::out_of_range("ResourceMonitor: no such service");
  }
  return samples_.column(kPerService * i + kind);
}

microsvc::ServiceId ResourceMonitor::HottestService(SimTime from,
                                                    SimTime to) const {
  microsvc::ServiceId best = 0;
  double best_util = -1;
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    const double mean =
        cpu_util(static_cast<microsvc::ServiceId>(i)).WindowMean(from, to);
    if (mean > best_util) {
      best_util = mean;
      best = static_cast<microsvc::ServiceId>(i);
    }
  }
  return best;
}

ResponseTimeMonitor::ResponseTimeMonitor(microsvc::Cluster& cluster,
                                         Config cfg)
    : cluster_(cluster), cfg_(std::move(cfg)) {
  // Log-spaced millisecond buckets covering sub-ms RPCs up to multi-second
  // tail stalls; intern-by-name makes a second monitor share the series.
  rt_hist_ = cluster_.telemetry().metrics().Histogram(
      cfg_.name + ".legit_ms",
      {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
  completion_sub_ = cluster_.telemetry().completion().Subscribe(
      [this](const microsvc::CompletionRecord& r) {
    if (!running_) return;
    if (r.cls != microsvc::RequestClass::kLegit) return;
    ++legit_outcomes_[static_cast<std::size_t>(r.outcome)];
    if (r.outcome != microsvc::Outcome::kOk) {
      ++window_errors_;
      return;
    }
    const SimDuration rt = r.end - r.start;
    const double rt_ms = ToMillis(rt);
    ++window_ok_;
    window_sum_ms_ += rt_ms;
    cluster_.telemetry().metrics().Observe(rt_hist_, rt_ms);
    // LegitWindow binary-searches on end time: completions are published
    // at Now(), so appends must arrive in end-time order.
    if (!legit_all_.empty() && r.end < legit_all_.last_end()) {
      throw std::logic_error("ResponseTimeMonitor '" + cfg_.name +
                             "': out-of-order completion");
    }
    if (rt > LegitRtStore::kMaxSpan) {
      throw std::overflow_error("ResponseTimeMonitor '" + cfg_.name +
                                "': legit RT of " + std::to_string(rt) +
                                " us does not fit 32 bits");
    }
    legit_all_.Append(r.end, rt);
  });
}

void ResponseTimeMonitor::Start() {
  if (running_) return;
  running_ = true;
  timer_ = cluster_.simulation().Every(cfg_.granularity, [this] { Flush(); });
}

void ResponseTimeMonitor::Stop() {
  running_ = false;
  timer_.Cancel();
}

void ResponseTimeMonitor::Flush() {
  const double total = static_cast<double>(window_ok_ + window_errors_);
  std::array<double, kColumns> row{};
  // The same left-to-right sum Samples::mean takes over the window's RTs.
  row[kLegitMeanMs] =
      window_ok_ == 0 ? 0.0
                      : window_sum_ms_ / static_cast<double>(window_ok_);
  row[kGoodput] =
      static_cast<double>(window_ok_) / ToSeconds(cfg_.granularity);
  row[kErrorRate] =
      total <= 0 ? 0.0 : static_cast<double>(window_errors_) / total;
  series_.AddRow(cluster_.simulation().Now(), row);
  window_ok_ = 0;
  window_sum_ms_ = 0;
  window_errors_ = 0;
}

Samples ResponseTimeMonitor::LegitWindow(SimTime from, SimTime to) const {
  return legit_all_.Window(from, to);
}

void LegitRtStore::NewChunk(SimTime base) {
  // The columns stay uninitialised: a row is written before it is read.
  auto chunk = std::make_unique_for_overwrite<Chunk>();
  chunk->base = base;
  chunks_.push_back(std::move(chunk));
}

std::pair<std::size_t, std::size_t> LegitRtStore::LowerBound(SimTime t) const {
  // Rows are sorted by end across chunks, so the first chunk whose last end
  // is >= t holds the answer.
  const auto chunk = std::partition_point(
      chunks_.begin(), chunks_.end(), [t](const std::unique_ptr<Chunk>& c) {
        return c->base + c->end_offset[c->rows - 1] < t;
      });
  if (chunk == chunks_.end()) return {chunks_.size(), 0};
  const Chunk& c = **chunk;
  // t <= the chunk's last end, so t - base fits the offset column.
  const std::uint32_t offset =
      t <= c.base ? 0 : static_cast<std::uint32_t>(t - c.base);
  const auto row = std::lower_bound(c.end_offset.begin(),
                                    c.end_offset.begin() + c.rows, offset);
  return {static_cast<std::size_t>(chunk - chunks_.begin()),
          static_cast<std::size_t>(row - c.end_offset.begin())};
}

Samples LegitRtStore::Window(SimTime from, SimTime to) const {
  Samples out;
  if (from >= to) return out;
  auto [chunk, row] = LowerBound(from);
  const auto [last_chunk, last_row] = LowerBound(to);
  for (; chunk <= last_chunk && chunk < chunks_.size(); ++chunk, row = 0) {
    const Chunk& c = *chunks_[chunk];
    const std::size_t end = chunk == last_chunk ? last_row : c.rows;
    // ToMillis of the integer µs RT: the double the monitor observed.
    for (; row < end; ++row) out.Add(ToMillis(c.rt_us[row]));
  }
  return out;
}

}  // namespace grunt::cloud
