#pragma once

// Interned metrics handles + a byte-stable JSON snapshot exporter.
//
// Names are interned at registration: re-registering a name (same kind)
// returns the same handle, so emitters and readers resolve independently.
// Handle operations are array indexing — no string hashing on the hot path.
// Callback gauges make instrumentation zero-cost for the instrumented code:
// the source is evaluated only when somebody snapshots or reads the gauge.
//
// Snapshot() nests dotted names ("svc.0.queue_len") into JSON objects in
// registration order and serializes through util/json, whose deterministic
// number formatting makes the dump byte-stable for a given registry state.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/json.h"

namespace grunt::telemetry {

class MetricsRegistry {
 public:
  using Id = std::uint32_t;
  static constexpr Id kInvalidId = static_cast<Id>(-1);

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Monotonic counter. Re-registering an existing counter name returns the
  /// same id; registering it as another kind throws json::Error.
  Id Counter(std::string_view name);
  void Add(Id id, std::uint64_t delta = 1) { metrics_[id].counter += delta; }
  std::uint64_t counter_value(Id id) const { return metrics_[id].counter; }

  /// Stored gauge (Set/ReadGauge) or callback gauge (evaluated at read
  /// time). Registering a source on an existing sourceless gauge installs
  /// it; an existing source is kept.
  Id Gauge(std::string_view name);
  Id Gauge(std::string_view name, std::function<double()> source);
  void Set(Id id, double value) { metrics_[id].gauge = value; }
  double ReadGauge(Id id) const {
    const Metric& m = metrics_[id];
    return m.source ? m.source() : m.gauge;
  }

  /// Fixed-bound histogram: `bounds` are the inclusive upper edges of the
  /// finite buckets (must be strictly increasing); one overflow bucket is
  /// implicit. Re-registering ignores the new bounds.
  Id Histogram(std::string_view name, std::vector<double> bounds);
  void Observe(Id id, double value);
  std::uint64_t histogram_count(Id id) const { return metrics_[id].count; }
  double histogram_sum(Id id) const { return metrics_[id].sum; }
  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// containing bucket (Prometheus histogram_quantile convention: the first
  /// bucket interpolates from 0, a quantile in the overflow bucket clamps to
  /// the highest finite bound). 0 when the histogram is empty.
  double histogram_quantile(Id id, double q) const {
    return Quantile(metrics_[id], q);
  }

  /// kInvalidId when the name was never registered.
  Id Find(std::string_view name) const;

  std::size_t size() const { return metrics_.size(); }

  /// All metrics as one nested JSON object: dotted name segments become
  /// object levels, in registration order. A name that is both a leaf and a
  /// prefix of another name ("a.b" and "a.b.c") throws json::Error.
  json::Value Snapshot() const;
  std::string SnapshotJson(int indent = 2) const {
    return Snapshot().Dump(indent);
  }

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Metric {
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0;
    std::function<double()> source;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow)
    std::uint64_t count = 0;
    double sum = 0;
  };

  /// Lets index_ be searched by string_view without building a string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  Id Intern(std::string_view name, Kind kind);
  json::Value Export(const Metric& m) const;
  static double Quantile(const Metric& m, double q);

  std::vector<Metric> metrics_;  ///< by id, in registration order
  /// name -> id, so that registering a large cluster's gauges (six per
  /// service) costs time linear, not quadratic, in the service count.
  std::unordered_map<std::string, Id, NameHash, std::equal_to<>> index_;
};

}  // namespace grunt::telemetry
