#include "apps/socialnetwork.h"

#include "scenario/builtin_apps.h"
#include "scenario/loader.h"

// The topology itself lives in the declarative scenario layer
// (scenario::SocialNetworkScenario, shipped as specs/socialnetwork.json);
// these forwarders keep the SocialNetwork entry points the repository
// benchmark harness builds on.

namespace grunt::apps {

microsvc::Application MakeSocialNetwork(const SocialNetworkOptions& opts) {
  return scenario::BuildApplication(
      scenario::SocialNetworkScenario(opts).topology);
}

workload::RequestMix SocialNetworkMix(const microsvc::Application& app) {
  return scenario::BuildRequestMix(app,
                                   scenario::SocialNetworkScenario().workload);
}

workload::MarkovNavigator SocialNetworkNavigator(
    const microsvc::Application& app) {
  return scenario::BuildNavigator(app,
                                  scenario::SocialNetworkScenario().workload);
}

}  // namespace grunt::apps
