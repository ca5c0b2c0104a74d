#pragma once

// White-box attacker profile for tests that skip the (separately tested)
// blackbox profiling phase and go straight to the burst phase.

#include <cstddef>
#include <vector>

#include "attack/profiler.h"
#include "microsvc/application.h"
#include "trace/dependency.h"
#include "workload/workload.h"

namespace grunt::testing {

/// Profile of `app` under `total_rate` legit req/s split by `mix`: every
/// public dynamic type is a candidate with a 20 ms baseline, and the
/// dependency pairs and groups come from trace::GroundTruth.
inline attack::ProfileResult TruthProfile(const microsvc::Application& app,
                                          const workload::RequestMix& mix,
                                          double total_rate) {
  attack::ProfileResult profile;
  std::vector<double> rates(app.request_type_count(), 0.0);
  double total_w = 0;
  for (double w : mix.weights) total_w += w;
  for (std::size_t i = 0; i < mix.types.size(); ++i) {
    rates[static_cast<std::size_t>(mix.types[i])] =
        total_rate * mix.weights[i] / total_w;
  }
  profile.baseline_rt_ms.assign(app.request_type_count(), 20.0);
  for (auto t : app.PublicDynamicTypes()) {
    profile.candidates.push_back(t);
    attack::PublicUrl url;
    url.url_id = t;
    url.path = "/" + app.request_type(t).name;
    profile.urls.push_back(url);
  }
  trace::GroundTruth truth(app, rates);
  trace::DependencyGroups groups(app.request_type_count());
  for (const auto& dep : truth.AllPairs()) {
    if (trace::IsDependent(dep.type)) {
      profile.pairs.push_back(dep);
      groups.Union(dep.a, dep.b);
    }
  }
  for (const auto& g : groups.Groups()) {
    if (!app.request_type(g.front()).is_static || g.size() > 1) {
      profile.groups.push_back(g);
    }
  }
  return profile;
}

}  // namespace grunt::testing
