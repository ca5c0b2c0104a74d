#pragma once

#include "microsvc/application.h"
#include "scenario/builder.h"
#include "workload/workload.h"

namespace grunt::apps {

/// Knobs for instantiating the SocialNetwork benchmark topology: the shared
/// deployment knobs (replica_scale, capacity_scale, dist, queue_scale and
/// the fault-tolerance / degradation fields), declared once in the
/// scenario layer.
using SocialNetworkOptions = scenario::DeploymentParams;

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
