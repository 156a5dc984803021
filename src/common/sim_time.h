#ifndef ECOSTORE_COMMON_SIM_TIME_H_
#define ECOSTORE_COMMON_SIM_TIME_H_

#include <cstdint>
#include <limits>
#include <string>

namespace ecostore {

/// Simulated time, in microseconds since the start of the simulation.
///
/// All timestamps inside the library are simulated; the library never reads
/// the wall clock. A plain integer alias (rather than std::chrono) keeps
/// trace records trivially copyable and serializable.
using SimTime = int64_t;

/// A span of simulated time, in microseconds.
using SimDuration = int64_t;

inline constexpr SimDuration kMicrosecond = 1;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;
inline constexpr SimDuration kMinute = 60 * kSecond;
inline constexpr SimDuration kHour = 60 * kMinute;

/// Converts a duration to fractional seconds.
inline constexpr double ToSeconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Converts fractional seconds to a duration (rounds toward zero).
inline constexpr SimDuration FromSeconds(double seconds) {
  return static_cast<SimDuration>(seconds * static_cast<double>(kSecond));
}

/// a + b and a - b clamped to the SimDuration range, for arithmetic on
/// times read from outside the program: a capture may stamp events
/// anywhere in the int64 range, where plain signed overflow is undefined.
inline SimDuration SaturatingAdd(SimDuration a, SimDuration b) {
  SimDuration out;
  if (!__builtin_add_overflow(a, b, &out)) return out;
  return b > 0 ? std::numeric_limits<SimDuration>::max()
               : std::numeric_limits<SimDuration>::min();
}
inline SimDuration SaturatingSub(SimDuration a, SimDuration b) {
  SimDuration out;
  if (!__builtin_sub_overflow(a, b, &out)) return out;
  return b < 0 ? std::numeric_limits<SimDuration>::max()
               : std::numeric_limits<SimDuration>::min();
}

/// Renders a duration as a compact human-readable string, e.g. "1.5s",
/// "520s", "2h".
std::string FormatDuration(SimDuration d);

}  // namespace ecostore

#endif  // ECOSTORE_COMMON_SIM_TIME_H_
