/**
 * @file
 * Byte, bandwidth, and time unit helpers shared across the simulator.
 *
 * Conventions: capacities are in bytes (std::int64_t), bandwidths in
 * bytes per second (double), compute rates in FLOP/s (double).
 */

#ifndef SN40L_UTIL_UNITS_H
#define SN40L_UTIL_UNITS_H

#include <cstdint>
#include <string>

namespace sn40l {

/** Binary (IEC) capacity units. */
constexpr std::int64_t KiB = 1024LL;
constexpr std::int64_t MiB = 1024LL * KiB;
constexpr std::int64_t GiB = 1024LL * MiB;
constexpr std::int64_t TiB = 1024LL * GiB;

/** Decimal (SI) units, used for bandwidths and marketing capacities. */
constexpr double KB = 1e3;
constexpr double MB = 1e6;
constexpr double GB = 1e9;
constexpr double TB = 1e12;

/** Bandwidth helpers: bytes per second. */
constexpr double GBps(double x) { return x * 1e9; }
constexpr double TBps(double x) { return x * 1e12; }

/** Compute-rate helpers: FLOP per second. */
constexpr double GFLOPS(double x) { return x * 1e9; }
constexpr double TFLOPS(double x) { return x * 1e12; }

namespace util {

/** Render a byte count as a human-readable string, e.g. "13.48 GB". */
std::string formatBytes(double bytes);

/** Render a bytes-per-second rate, e.g. "1.80 TB/s". */
std::string formatBandwidth(double bytes_per_sec);

/** Render a second count with an adaptive unit, e.g. "12.9 ms". */
std::string formatSeconds(double seconds);

/** Render a double with @p digits fractional digits. */
std::string formatDouble(double value, int digits = 2);

/** Render a double in printf's %g style, e.g. "1e-300" or "4.61169e+06". */
std::string formatGeneral(double value);

} // namespace util
} // namespace sn40l

#endif // SN40L_UTIL_UNITS_H
