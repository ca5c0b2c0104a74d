#pragma once

#include "apps/resilience.h"
#include "microsvc/application.h"
#include "workload/workload.h"

namespace grunt::apps {

/// Knobs for the HotelReservation topology (same semantics as
/// SocialNetworkOptions).
struct HotelReservationOptions {
  std::int32_t replica_scale = 1;
  double capacity_scale = 1.0;
  microsvc::ServiceTimeDist dist = microsvc::ServiceTimeDist::kExponential;
  /// Fault-tolerance deployment; defaults off (paper configuration).
  ResilienceOptions resilience{};
};

/// A second DeathStarBench-style target (extension beyond the paper's
/// evaluation, which used SocialNetwork + µBench): a travel-booking
/// application with a search fan-in (geo / rates / recommendation behind a
/// shared search frontend) and a reservation fan-in (availability / payment
/// / booking-records behind a shared reservation frontend), plus
/// independent login and profile paths and a static tile asset. By ground
/// truth it forms two multi-path dependency groups and two singletons —
/// a different group structure than SocialNetwork, exercising the same
/// attack pipeline.
microsvc::Application MakeHotelReservation(
    const HotelReservationOptions& opts = {});

/// Popularity-weighted navigation mix (search-heavy, bookings rarer).
workload::RequestMix HotelReservationMix(const microsvc::Application& app);

/// Markov navigator with the mix as its stationary distribution.
workload::MarkovNavigator HotelReservationNavigator(
    const microsvc::Application& app);

}  // namespace grunt::apps
