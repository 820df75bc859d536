/**
 * @file
 * Simulation time base.
 *
 * One tick is one picosecond. Picoseconds give enough resolution to
 * express sub-nanosecond link and SRAM latencies while still covering
 * multi-hour simulated spans in a signed 64-bit integer.
 */

#ifndef SN40L_SIM_TICKS_H
#define SN40L_SIM_TICKS_H

#include <cstdint>
#include <limits>

namespace sn40l::sim {

using Tick = std::int64_t;

/** Ticks per SI time unit. */
constexpr Tick kTicksPerPs = 1;
constexpr Tick kTicksPerNs = 1000LL;
constexpr Tick kTicksPerUs = 1000LL * kTicksPerNs;
constexpr Tick kTicksPerMs = 1000LL * kTicksPerUs;
constexpr Tick kTicksPerSec = 1000LL * kTicksPerMs;

/** Sentinel for "never" / unbounded run limits. */
constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/** Simulated seconds the whole tick range spans (~106 days). */
constexpr double kMaxSeconds =
    static_cast<double>(kMaxTick) / static_cast<double>(kTicksPerSec);

/**
 * Latest simulated time a configured or generated input (an arrival, a
 * think time, one flit's wire time) may reach: half the tick range,
 * leaving the other half for the work it triggers.
 */
constexpr double kHorizonSeconds = kMaxSeconds / 2.0;

/** True for a time in [0, kHorizonSeconds); false for NaN and infinity. */
constexpr bool
withinHorizon(double seconds)
{
    return seconds >= 0.0 && seconds < kHorizonSeconds;
}

/** requireValue() rules for the times withinHorizon() checks. */
constexpr const char *kTimeRule =
    "must be >= 0 and shorter than simulated time can span";
constexpr const char *kPositiveTimeRule =
    "must be > 0 and shorter than simulated time can span";

/**
 * A tick count held in a double, truncated to a Tick and saturating: a
 * value outside the tick range clamps to +-kMaxTick (NaN to kMaxTick)
 * instead of overflowing the conversion, which is undefined behaviour.
 */
constexpr Tick
saturatingTicks(double t)
{
    // 0x1p63 is exactly 2^63, one past kMaxTick.
    if (t < 0x1p63 && t > -0x1p63)
        return static_cast<Tick>(t);
    return t < 0.0 ? -kMaxTick : kMaxTick;
}

/** Unit to ticks; all saturate like saturatingTicks(). */
constexpr Tick fromPs(double ps) { return saturatingTicks(ps); }
constexpr Tick fromNs(double ns) { return saturatingTicks(ns * kTicksPerNs); }
constexpr Tick fromUs(double us) { return saturatingTicks(us * kTicksPerUs); }
constexpr Tick fromMs(double ms) { return saturatingTicks(ms * kTicksPerMs); }
constexpr Tick fromSeconds(double s) { return saturatingTicks(s * kTicksPerSec); }

constexpr double toNs(Tick t) { return static_cast<double>(t) / kTicksPerNs; }
constexpr double toUs(Tick t) { return static_cast<double>(t) / kTicksPerUs; }
constexpr double toMs(Tick t) { return static_cast<double>(t) / kTicksPerMs; }
constexpr double toSeconds(Tick t) { return static_cast<double>(t) / kTicksPerSec; }

/**
 * Time taken to move @p bytes at @p bytes_per_sec, as a tick count.
 * Rounds up so a nonzero transfer never takes zero time, and saturates
 * at kMaxTick when the transfer outlasts the tick range.
 */
constexpr Tick
transferTicks(double bytes, double bytes_per_sec)
{
    if (bytes <= 0.0 || bytes_per_sec <= 0.0)
        return 0;
    double seconds = bytes / bytes_per_sec;
    double ticks = seconds * kTicksPerSec;
    // One compare on the booking hot path; it also sends NaN to the
    // saturated branch.
    if (!(ticks < 0x1p63))
        return kMaxTick;
    Tick t = static_cast<Tick>(ticks);
    return t > 0 ? t : 1;
}

} // namespace sn40l::sim

#endif // SN40L_SIM_TICKS_H
