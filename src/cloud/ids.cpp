#include "cloud/ids.h"

namespace grunt::cloud {

const char* ToString(AlertRule rule) {
  switch (rule) {
    case AlertRule::kInterRequestInterval: return "inter-request-interval";
    case AlertRule::kRateLimit: return "rate-limit";
    case AlertRule::kResourceSaturation: return "resource-saturation";
    case AlertRule::kServiceDegradation: return "service-degradation";
  }
  return "?";
}

Ids::Ids(microsvc::Cluster& cluster, const ResourceMonitor* monitor,
         const ResponseTimeMonitor* rt_monitor, Config cfg)
    : cluster_(cluster), monitor_(monitor), rt_monitor_(rt_monitor),
      cfg_(cfg) {
  if (monitor_ != nullptr) {
    next_util_sample_.assign(cluster_.service_count(), 0);
    saturated_ticks_.assign(cluster_.service_count(), 0);
  }
  cluster_.telemetry().submit().Subscribe(
      [this](const telemetry::RequestSubmit& e) {
        if (running_) OnSubmit(e.type, e.cls, e.client_id, e.at);
      });
}

void Ids::Start() {
  if (running_) return;
  running_ = true;
  timer_ = cluster_.simulation().Every(Sec(1), [this] { Evaluate(); });
}

void Ids::Stop() {
  running_ = false;
  timer_.Cancel();
}

void Ids::Raise(AlertRule rule, bool attack_attributed) {
  ++alerts_.by_rule_[static_cast<std::size_t>(rule)];
  if (attack_attributed) ++attributed_attack_alerts_;
}

void Ids::OnSubmit(microsvc::RequestTypeId /*type*/,
                   microsvc::RequestClass cls, std::uint64_t client_id,
                   SimTime at) {
  SessionState& s = sessions_[client_id];
  const bool attack_session = (cls != microsvc::RequestClass::kLegit);
  s.is_attack = s.is_attack || attack_session;

  // Behavioral rule: consecutive requests too close together.
  if (s.total_requests >= cfg_.min_session_requests - 1 &&
      s.total_requests > 0 && at - s.last_request < cfg_.min_inter_request) {
    Raise(AlertRule::kInterRequestInterval, s.is_attack);
  }
  s.last_request = at;
  ++s.total_requests;

  // Rate rule: sliding-window per-IP budget.
  s.window.push_back(at);
  while (!s.window.empty() && s.window.front() <= at - cfg_.rate_window) {
    s.window.pop_front();
  }
  if (static_cast<std::int64_t>(s.window.size()) > cfg_.rate_limit) {
    Raise(AlertRule::kRateLimit, s.is_attack);
    s.window.clear();  // one alert per overflow, then reset the budget
  }
}

void Ids::Evaluate() {
  if (monitor_ != nullptr) {
    for (std::size_t i = 0; i < next_util_sample_.size(); ++i) {
      const auto sid = static_cast<microsvc::ServiceId>(i);
      const SeriesView series = monitor_->cpu_util(sid);
      for (; next_util_sample_[i] < series.size(); ++next_util_sample_[i]) {
        if (series.at(next_util_sample_[i]).value >=
            cfg_.saturation_threshold) {
          ++saturated_ticks_[i];
          if (saturated_ticks_[i] >= cfg_.saturation_samples) {
            Raise(AlertRule::kResourceSaturation,
                  /*attack_attributed=*/false);
            saturated_ticks_[i] = 0;
          }
        } else {
          saturated_ticks_[i] = 0;
        }
      }
    }
  }
  if (rt_monitor_ != nullptr) {
    const SeriesView series = rt_monitor_->legit_mean_ms();
    for (; next_rt_sample_ < series.size(); ++next_rt_sample_) {
      if (series.at(next_rt_sample_).value >= cfg_.degradation_rt_ms) {
        Raise(AlertRule::kServiceDegradation, /*attack_attributed=*/false);
      }
    }
  }
}

}  // namespace grunt::cloud
