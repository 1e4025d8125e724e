// Simulation time representation and helpers.
//
// Simulated time is a double measured in seconds from the simulation epoch
// (t = 0). Doubles give us sub-second resolution over multi-month horizons
// (the SDSC SP2 subset spans ~3.75 months ~ 1e7 s, far below the 2^53
// integer-exact range), while keeping proportional-share rate arithmetic
// natural.
#pragma once

#include <limits>

namespace utilrisk::sim {

/// Simulated time in seconds since the simulation epoch.
using SimTime = double;

/// Sentinel for "never" / unbounded horizons.
inline constexpr SimTime kTimeNever = std::numeric_limits<SimTime>::infinity();

/// Comparison slack for derived times (rate integrations accumulate a few
/// ulps of error; anything below a microsecond is "equal" for scheduling).
inline constexpr SimTime kTimeEpsilon = 1e-6;

/// Clamp tiny negative values (from floating-point cancellation) to zero.
[[nodiscard]] inline SimTime clamp_nonnegative(SimTime t) {
  return t < 0.0 && t > -kTimeEpsilon ? 0.0 : t;
}

namespace duration {
inline constexpr SimTime kHour = 3600.0;
inline constexpr SimTime kDay = 86400.0;
}  // namespace duration

}  // namespace utilrisk::sim
