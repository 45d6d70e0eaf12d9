/**
 * @file
 * Time, area and rate units shared across the simulator.
 *
 * Discrete-event time is kept in integer nanoseconds (Tick) so that a
 * full 1024-bit modular exponentiation (hundreds of hours) still fits a
 * 64-bit counter with nine decimal digits to spare. Analytic models use
 * double-precision seconds and convert at the boundary.
 */

#ifndef QMH_COMMON_UNITS_HH
#define QMH_COMMON_UNITS_HH

#include <cstdint>

namespace qmh {

/** Discrete-event simulation time in nanoseconds. */
using Tick = std::uint64_t;

/** An invalid/unscheduled tick. */
constexpr Tick max_tick = ~Tick(0);

namespace units {

constexpr double ns_per_sec = 1e9;

/** Convert seconds to ticks, rounding to the nearest nanosecond. */
constexpr Tick
secondsToTicks(double s)
{
    return static_cast<Tick>(s * ns_per_sec + 0.5);
}

/** Convert ticks to seconds. */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / ns_per_sec;
}

/** Microseconds to seconds. */
constexpr double
usToSeconds(double us)
{
    return us * 1e-6;
}

/** Square micrometres to square millimetres. */
constexpr double
um2ToMm2(double um2)
{
    return um2 * 1e-6;
}

/** Seconds to hours. */
constexpr double
secondsToHours(double s)
{
    return s / 3600.0;
}

/**
 * Busy fraction of @p servers identical servers over @p span:
 * busy / (span x servers). Returns 0 when span or servers is zero —
 * a resource that never ran has no utilization, not a division by
 * zero. Every utilization the simulator reports is this one
 * expression, so a result restated at another server count has the
 * exact bytes of a direct run at that count.
 */
constexpr double
busyFraction(std::uint64_t busy, std::uint64_t span, std::uint64_t servers)
{
    const double capacity =
        static_cast<double>(span) * static_cast<double>(servers);
    return capacity > 0.0 ? static_cast<double>(busy) / capacity : 0.0;
}

} // namespace units

} // namespace qmh

#endif // QMH_COMMON_UNITS_HH
