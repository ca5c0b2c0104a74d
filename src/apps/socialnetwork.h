#pragma once

#include "apps/resilience.h"
#include "microsvc/application.h"
#include "workload/workload.h"

namespace grunt::apps {

/// Knobs for instantiating the SocialNetwork benchmark topology.
struct SocialNetworkOptions {
  /// Scales the initial replica count of backend services (the paper's
  /// higher-workload settings run against proportionally larger clusters).
  std::int32_t replica_scale = 1;
  /// Relative capacity of the hosting cloud (EC2 = 1.0; used to model the
  /// slightly different vCPU throughput across providers).
  double capacity_scale = 1.0;
  microsvc::ServiceTimeDist dist = microsvc::ServiceTimeDist::kExponential;
  /// Multiplies every backend service's thread-pool (queue) size; the
  /// Sec VI "Impact of microservice's queue size" knob. 1.0 = reference.
  double queue_scale = 1.0;
  /// Fault-tolerance deployment (timeouts/retries/shedding/breakers);
  /// defaults off so the paper's figures reproduce unchanged.
  ResilienceOptions resilience{};
};

/// Builds a SocialNetwork-style microservice application modeled on the
/// DeathStarBench SocialNetwork call graph the paper attacks (Fig 12a):
/// an nginx gateway, a compose-post fan-in, home-/user-timeline read fan-ins
/// and storage backends. Request types are the public URLs; by construction
/// (and verified by ground-truth analysis in tests) they form three
/// dependency groups — compose, read-home, read-user — plus independent
/// singleton paths and one static URL, mirroring Fig 12(c).
microsvc::Application MakeSocialNetwork(const SocialNetworkOptions& opts = {});

/// The legitimate-user page-navigation mix over the app's request types
/// (popularity-weighted, Markov-uniform variant available via
/// workload::MarkovNavigator).
workload::RequestMix SocialNetworkMix(const microsvc::Application& app);

/// Markov navigator with the same stationary popularity as
/// SocialNetworkMix (users browse timelines, occasionally compose).
workload::MarkovNavigator SocialNetworkNavigator(
    const microsvc::Application& app);

}  // namespace grunt::apps
