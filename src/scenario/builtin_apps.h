#pragma once

// Spec-first construction of the built-in application scenarios: the
// declarative ports of the topologies that used to be hard-coded in
// src/apps. Callers build with BuildApplication(...) of what these functions
// return, and the shipped files under specs/ are their dumps at default
// parameters.

#include "scenario/builder.h"
#include "scenario/spec.h"

namespace grunt::scenario {

/// DeathStarBench SocialNetwork (Fig 12a): nginx gateway, compose-post
/// fan-in, home-/user-timeline read fan-ins, storage backends; 13 dynamic
/// endpoints + 1 static, forming three dependency groups + singletons.
ScenarioSpec SocialNetworkScenario(const DeploymentParams& params = {});

/// HotelReservation-style travel-booking topology: search and reservation
/// fan-ins plus independent login/profile paths (two dependency groups).
ScenarioSpec HotelReservationScenario(const DeploymentParams& params = {});

/// The reference anti-Grunt deployment preset used by the defended
/// scenario and bench_defense_degradation: short timeouts, per-downstream
/// bulkheads, adaptive concurrency limits, deadline-aware shedding and a
/// 1-second end-to-end deadline on every dynamic endpoint.
DeploymentParams DefendedDeployment(DeploymentParams params = {});

/// SocialNetwork with the full degradation layer deployed — the same
/// topology and workload as `socialnetwork`, differing only in the defense
/// knobs (shipped as specs/socialnetwork_defended.json).
ScenarioSpec SocialNetworkDefendedScenario();

}  // namespace grunt::scenario
