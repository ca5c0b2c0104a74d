#pragma once

// Seeded random-application generator, modeled on µBench [21]: deterministic
// random microservice topologies of a target size with embedded dependency
// groups, used for the paper's live attack scenarios against unknown
// architectures (Sec V-C; apps with 62, 118 and 196 unique microservices).
//
// The generator emits a ScenarioSpec, so a generated app can be dumped to a
// spec file, inspected, edited and re-loaded like any hand-written scenario.

#include <cstdint>

#include "scenario/builder.h"
#include "scenario/spec.h"

namespace grunt::scenario {

/// Shape parameters for GenerateMubench.
struct MubenchParams {
  std::int32_t services = 62;  ///< unique microservices to generate
  std::int32_t groups = 3;     ///< dependency groups to embed
  /// Dependent paths per group (each bottlenecks on its own worker service
  /// behind the group's shared upstream service).
  std::int32_t paths_per_group = 3;
  /// Additionally, one "upstream" path per group whose bottleneck is the
  /// shared UM itself (sequential dependency source). Generated for the
  /// first `upstream_paths` groups.
  std::int32_t upstream_paths = 1;
  std::int32_t singleton_paths = 2;  ///< independent paths (own group each)
};

/// Generates a deterministic random scenario with the requested shape. The
/// same (seed, shape, deployment) always yields the same spec; the RNG
/// stream name ("mubench.topology") and draw order are fixed, so the
/// generated topologies stay identical to the pre-scenario-layer
/// hard-coded generator's output. Services not reachable from any public
/// path pad the topology to `services` (realistic: batch/ops services that
/// public URLs never touch).
///
/// `deployment` supplies the service-time distribution, the fault-tolerance
/// and degradation knobs (stamped like every built-in scenario's) and the
/// closed-loop population (0 = 4000 users); its replica, capacity, queue,
/// edge and client knobs are ignored.
///
/// The workload mix down-weights "-admin" endpoints to 0.25 (they are
/// heavyweight on their group frontend; a uniform mix would saturate it).
ScenarioSpec GenerateMubench(std::uint64_t seed,
                             const MubenchParams& shape = {},
                             const DeploymentParams& deployment = {});

}  // namespace grunt::scenario
