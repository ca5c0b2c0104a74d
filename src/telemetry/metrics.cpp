#include "telemetry/metrics.h"

#include <utility>

namespace grunt::telemetry {

namespace {

const char* KindName(int k) {
  switch (k) {
    case 0: return "counter";
    case 1: return "gauge";
    case 2: return "histogram";
  }
  return "?";
}

}  // namespace

MetricsRegistry::Id MetricsRegistry::Find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? kInvalidId : it->second;
}

MetricsRegistry::Id MetricsRegistry::Intern(std::string_view name, Kind kind) {
  const Id existing = Find(name);
  if (existing != kInvalidId) {
    const Metric& m = metrics_[existing];
    if (m.kind != kind) {
      throw json::Error("metric '" + std::string(name) + "' registered as " +
                        KindName(static_cast<int>(m.kind)) + ", requested as " +
                        KindName(static_cast<int>(kind)));
    }
    return existing;
  }
  const auto id = static_cast<Id>(metrics_.size());
  Metric m;
  m.name = std::string(name);
  m.kind = kind;
  metrics_.push_back(std::move(m));
  index_.emplace(std::string(name), id);
  return id;
}

MetricsRegistry::Id MetricsRegistry::Counter(std::string_view name) {
  return Intern(name, Kind::kCounter);
}

MetricsRegistry::Id MetricsRegistry::Gauge(std::string_view name) {
  return Intern(name, Kind::kGauge);
}

MetricsRegistry::Id MetricsRegistry::Gauge(std::string_view name,
                                           std::function<double()> source) {
  const Id id = Intern(name, Kind::kGauge);
  if (!metrics_[id].source) metrics_[id].source = std::move(source);
  return id;
}

MetricsRegistry::Id MetricsRegistry::Histogram(std::string_view name,
                                               std::vector<double> bounds) {
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1]) {
      throw json::Error("histogram '" + std::string(name) +
                        "': bounds must be strictly increasing");
    }
  }
  const Id id = Intern(name, Kind::kHistogram);
  Metric& m = metrics_[id];
  if (m.buckets.empty()) {
    m.bounds = std::move(bounds);
    m.buckets.assign(m.bounds.size() + 1, 0);
  }
  return id;
}

void MetricsRegistry::Observe(Id id, double value) {
  Metric& m = metrics_[id];
  ++m.count;
  m.sum += value;
  std::size_t b = 0;
  while (b < m.bounds.size() && value > m.bounds[b]) ++b;
  ++m.buckets[b];
}

double MetricsRegistry::Quantile(const Metric& m, double q) {
  if (m.count == 0 || m.bounds.empty()) return 0.0;
  const double target = q * static_cast<double>(m.count);
  double cum = 0;
  for (std::size_t b = 0; b < m.bounds.size(); ++b) {
    const double in_bucket = static_cast<double>(m.buckets[b]);
    if (cum + in_bucket >= target && in_bucket > 0) {
      const double lower = b == 0 ? 0.0 : m.bounds[b - 1];
      const double upper = m.bounds[b];
      return lower + (upper - lower) * (target - cum) / in_bucket;
    }
    cum += in_bucket;
  }
  // The quantile falls in the overflow bucket: no upper edge to interpolate
  // toward, so clamp to the highest finite bound (Prometheus convention).
  return m.bounds.back();
}

json::Value MetricsRegistry::Export(const Metric& m) const {
  switch (m.kind) {
    case Kind::kCounter:
      return json::Value(static_cast<std::int64_t>(m.counter));
    case Kind::kGauge:
      return json::Value(m.source ? m.source() : m.gauge);
    case Kind::kHistogram: {
      json::Object buckets;
      for (std::size_t i = 0; i < m.bounds.size(); ++i) {
        buckets.emplace_back(
            "le_" + json::Value(m.bounds[i]).Dump(0),
            json::Value(static_cast<std::int64_t>(m.buckets[i])));
      }
      buckets.emplace_back(
          "le_inf", json::Value(static_cast<std::int64_t>(
                        m.buckets.empty() ? 0 : m.buckets.back())));
      json::Object h;
      h.emplace_back("count",
                     json::Value(static_cast<std::int64_t>(m.count)));
      h.emplace_back("sum", json::Value(m.sum));
      h.emplace_back("p95", json::Value(Quantile(m, 0.95)));
      h.emplace_back("p99", json::Value(Quantile(m, 0.99)));
      h.emplace_back("buckets", json::Value(std::move(buckets)));
      return json::Value(std::move(h));
    }
  }
  return json::Value();
}

json::Value MetricsRegistry::Snapshot() const {
  json::Value root{json::Object{}};
  for (const Metric& m : metrics_) {
    // Walk the dotted path, creating intermediate objects as needed.
    json::Value* node = &root;
    std::string_view rest = m.name;
    for (;;) {
      const std::size_t dot = rest.find('.');
      const std::string_view seg = rest.substr(0, dot);
      const bool leaf = (dot == std::string_view::npos);
      json::Object& obj = node->MutableObject();
      json::Value* child = nullptr;
      for (auto& [key, val] : obj) {
        if (key == seg) {
          child = &val;
          break;
        }
      }
      if (leaf) {
        if (child != nullptr) {
          throw json::Error("metric name '" + m.name +
                            "' collides with an earlier metric's path");
        }
        obj.emplace_back(std::string(seg), Export(m));
        break;
      }
      if (child == nullptr) {
        obj.emplace_back(std::string(seg), json::Value(json::Object{}));
        child = &obj.back().second;
      } else if (!child->is_object()) {
        throw json::Error("metric name '" + m.name +
                          "' collides with an earlier metric's path");
      }
      node = child;
      rest = rest.substr(dot + 1);
    }
  }
  return root;
}

}  // namespace grunt::telemetry
